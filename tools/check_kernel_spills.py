#!/usr/bin/env python3
"""Check that every vector micro-kernel and pack keeps its vectors in registers.

For each function in the given object files that has a prefetcht0 (the
rank-dc loop's Q-panel prefetch; only the micro-kernels have one), find the
depth loop — the innermost backward branch whose range holds the prefetch —
and report any %rsp/%rbp memory operand inside it. Such an operand means the
register tile was spilled: GCC kept the accumulator array on the stack
(docs/ARCHITECTURE.md, "The micro-kernel contract"). For each transpose pack
(pack_points_simd<V, S>), report any %xmm/%ymm/%zmm operand that addresses
%rsp/%rbp inside an innermost loop: the transposed block went through
memory. The pack's scalar reloads of its source-row pointers are allowed.
Exits nonzero if any loop spills. Run it on a Release build:

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
VECTOR = re.compile(r"%[xyz]mm")
PACK = re.compile(r"pack_points_simd<")
SIGNATURE = re.compile(r"\((?:int|gsknn::PointTableT)\b.*")


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


def inner_loops(insns, keep=lambda lo, hi: True):
    """Instructions of the innermost loops among those `keep` accepts."""
    loops = []
    for a, t in insns:
        m = JUMP.match(t)
        if m and int(m.group(1), 16) < a and keep(int(m.group(1), 16), a):
            loops.append((int(m.group(1), 16), a))
    inner = [r for r in loops
             if not any(o != r and r[0] <= o[0] and o[1] <= r[1]
                        for o in loops)]
    return [t for lo, hi in inner for a, t in insns if lo <= a <= hi]


def checked_loop(name, insns):
    """(loop instructions, spilling operands) for a kernel or pack, else None."""
    if PACK.search(name):
        loop = inner_loops(insns)
        return loop, [t for t in loop if STACK.search(t) and VECTOR.search(t)]
    pf = [a for a, t in insns if t.startswith("prefetcht0")]
    loop = inner_loops(insns, lambda lo, hi: any(lo <= p <= hi for p in pf))
    return (loop, [t for t in loop if STACK.search(t)]) if loop else None


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
            found = checked_loop(name, insns)
            if found is None:
                continue
            loop, spills = found
            checked += 1
            bad += bool(spills)
            print(f"{'SPILL' if spills else 'ok   '} {len(loop):3d} insns "
                  f"{len(spills)} stack operands  {SIGNATURE.sub('', name)}")
    print(f"check_kernel_spills: {checked} kernels and packs, {bad} spilling")
    return 1 if bad or not checked else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
