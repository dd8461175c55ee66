#!/usr/bin/env python3
"""End-to-end benchmark of GSKNN: builds the driver, runs the workloads.

    python3 bench/e2e/run.py [--workload W] [--seed S] [--seconds T]
                             [--trace 0|1 | --traced] [--repeat N] [--smoke]
                             [--out FILE]

Builds bench/e2e (Release) into .bench_build/e2e, then runs each workload
in its own process with every GSKNN_* knob cleared and OMP_NUM_THREADS set.
Prints every metric as `workload metric value unit`, writes all runs as JSON
(default .bench_build/e2e/results.json) and, as the last line of stdout, one
JSON object {correct, attempted, failed, metrics}: the end-to-end metrics
BENCHMARK.json names, or with --trace 1 its per-layer metrics. With one
workload and one run those are that run's values; otherwise they are
medians keyed "workload/metric".

--repeat N interleaves the workloads over N repetitions, repetition i on
seed S+i, and reports each metric's median and spread (IQR over median).
--smoke runs every workload and every check at toy sizes, traced.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
# Every timed call asks for one thread. OpenMP's default sizes only the
# GEMM baseline's BLAS, which must match the calls it is compared with.
THREADS = 1
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 0.5


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("GSKNN_")}
    env["OMP_NUM_THREADS"] = str(THREADS)
    return env


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail(f"no library sources at {ROOT}; nothing to benchmark")
    os.makedirs(BUILD, exist_ok=True)
    quiet = {"stdout": sys.stderr, "env": env}
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, **quiet).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "gsknn_e2e", "-j",
           str(os.cpu_count() or 1)]
    if subprocess.run(cmd, **quiet).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "gsknn_e2e")


def run_one(exe, env, workload, seed, seconds, trace, smoke):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-dir", BUILD]
    if smoke:
        cmd.append("--smoke")
    started = time.time()
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"{workload}: driver exited {p.returncode}")
    res = json.loads(lines[-1])
    res["started_at"] = started
    res["wall_s"] = time.time() - started
    return res


def print_run(res):
    w = res["workload"]
    for kind in ("metrics", "layer", "diagnostics"):
        for name, m in res[kind].items():
            print(f"{w} {name} {m['value']} {m['unit']}")
    print(f"{w} attempted {res['attempted']} count")
    print(f"{w} failed {res['failed']} count")
    for note in res["notes"]:
        print(f"{w} FAILED: {note}")


def summarize(runs, kind):
    """{workload: {metric: {median, q1, q3, spread, unit, n}}} over runs."""
    values = {}
    for r in runs:
        for name, m in r[kind].items():
            if m["value"] is not None:
                values.setdefault(r["workload"], {}).setdefault(
                    name, (m["unit"], []))[1].append(m["value"])
    out = {}
    for w, metrics in values.items():
        for name, (unit, vs) in metrics.items():
            med = statistics.median(vs)
            q1, _, q3 = (statistics.quantiles(vs, n=4) if len(vs) > 1
                         else (vs[0], vs[0], vs[0]))
            out.setdefault(w, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "unit": unit, "n": len(vs),
                "spread": (q3 - q1) / abs(med) if med else 0.0}
    return out


def main():
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", default=os.path.join(BUILD, "results.json"))
    args = ap.parse_args()
    trace = bool(args.trace) or args.traced or args.smoke
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    chosen = [args.workload] if args.workload else workloads
    if args.repeat < 1 or seconds <= 0:
        fail("--repeat and --seconds must be positive")

    env = clean_env()
    exe = build(env)
    runs = []
    for rep in range(args.repeat):
        # Rotate the order so no workload always runs first or last.
        order = chosen[rep % len(chosen):] + chosen[:rep % len(chosen)]
        for w in order:
            res = run_one(exe, env, w, args.seed + rep, seconds, trace,
                          args.smoke)
            print_run(res)
            runs.append(res)

    kind = "layer" if trace else "metrics"
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    summary = summarize(runs, kind)
    for r in runs:
        missing = [n for n in names if r[kind].get(n, {}).get("value") is None]
        if missing:
            fail(f"{r['workload']}: no value for {', '.join(missing)}")
    if args.repeat > 1:
        bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
        for w in chosen:
            for n in names:
                s = summary[w][n]
                b = bounds.get(n)
                flag = " OVER BOUND" if b is not None and n != "setup_s" and \
                    s["spread"] > b else ""
                print(f"{w} {n} median {s['median']:.6g} {s['unit']} "
                      f"IQR [{s['q1']:.6g}, {s['q3']:.6g}] "
                      f"spread {100 * s['spread']:.2f}%"
                      + (f" bound {100 * b:.0f}%{flag}" if b else ""))

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"provenance": runs[0]["provenance"], "runs": runs,
                   "summary": summary}, f, indent=1)
    print(f"# results: {args.out}", file=sys.stderr)

    if len(runs) == 1:
        metrics = {n: runs[0][kind][n] for n in names}
    else:
        metrics = {f"{w}/{n}": {"value": summary[w][n]["median"],
                                "unit": summary[w][n]["unit"]}
                   for w in chosen for n in names}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics}))


if __name__ == "__main__":
    main()
