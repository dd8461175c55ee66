#!/usr/bin/env python3
"""Check that every vector micro-kernel keeps its accumulators in registers.

For each function in the given object files that has a software prefetch
(the rank-dc loop's Q-panel prefetch; only the micro-kernels have one), find
the depth loop — the innermost backward branch whose range holds the
prefetch — and report any %rsp/%rbp memory operand inside it. Such an
operand means the register tile was spilled: GCC kept the accumulator array
on the stack (docs/ARCHITECTURE.md, "The micro-kernel contract"). Exits
nonzero if any depth loop spills. Run it on a Release build:

    tools/check_kernel_spills.py build/src/core/CMakeFiles/gsknn_core.dir/micro_avx*.o \\
        build/src/blas/CMakeFiles/gsknn_blas.dir/ukernel_avx*.o

The `kernel_spills` CTest runs it that way with `--config <build type>`: it
then exits 77 (skipped) unless the build type is Release, since only
optimized code keeps the tile in registers, and also when objdump is
missing. Arguments holding ';'-separated lists are split.
"""

import argparse
import re
import shutil
import subprocess
import sys

SKIP = 77

FUNC = re.compile(r"^([0-9a-f]+) <(.*)>:$")
INSN = re.compile(r"^\s+([0-9a-f]+):\s+(.*)$")
JUMP = re.compile(r"^j\w+\s+([0-9a-f]+)")
STACK = re.compile(r"\(%r[sb]p[,)]")
SIGNATURE = re.compile(r"\(int, .*")


def functions(obj):
    out = subprocess.run(["objdump", "-d", "--no-show-raw-insn", "-C", obj],
                         capture_output=True, text=True, check=True).stdout
    funcs, cur = {}, None
    for line in out.splitlines():
        m = FUNC.match(line)
        if m:
            cur = funcs.setdefault(m.group(2), [])
            continue
        m = INSN.match(line)
        if m and cur is not None:
            cur.append((int(m.group(1), 16), m.group(2)))
    return funcs


def depth_loop(insns):
    """Instructions of the innermost loops that contain a prefetch."""
    pf = [a for a, t in insns if t.startswith("prefetcht0")]
    loops = []
    for a, t in insns:
        m = JUMP.match(t)
        if m and int(m.group(1), 16) < a:
            lo = int(m.group(1), 16)
            if any(lo <= p <= a for p in pf):
                loops.append((lo, a))
    inner = [r for r in loops
             if not any(o != r and r[0] <= o[0] and o[1] <= r[1]
                        for o in loops)]
    return [t for lo, hi in inner for a, t in insns if lo <= a <= hi]


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", help="build type; skip unless Release")
    ap.add_argument("objs", nargs="+")
    args = ap.parse_args(argv)
    if args.config is not None and args.config != "Release":
        print(f"check_kernel_spills: skipped, {args.config or 'no'} build "
              "type (Release only)")
        return SKIP
    if shutil.which("objdump") is None:
        print("check_kernel_spills: skipped, objdump not found")
        return SKIP
    objs = [o for arg in args.objs for o in arg.split(";") if o]
    bad = checked = 0
    for obj in objs:
        for name, insns in functions(obj).items():
            loop = depth_loop(insns)
            if not loop:
                continue
            checked += 1
            spills = [t for t in loop if STACK.search(t)]
            bad += bool(spills)
            print(f"{'SPILL' if spills else 'ok   '} {len(loop):3d} insns "
                  f"{len(spills)} stack operands  {SIGNATURE.sub('', name)}")
    print(f"check_kernel_spills: {checked} depth loops, {bad} spilling")
    return 1 if bad or not checked else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
