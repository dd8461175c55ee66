#!/usr/bin/env python3
"""A/B comparison of end-to-end benchmark results: parent commit vs change.

    python3 bench/e2e/compare.py --parent P1.json [P2.json ...] \
                                 --change C1.json [C2.json ...] \
                                 [--min-pairs 10] [--benchmark BENCHMARK.json]

Inputs are results files written by run.py (untraced runs). Runs pair up by
(workload, seed), in the order they appear; the two sides of a pair must
have run back to back, with the side that ran first alternating from pair
to pair (README.md shows the loop). Every end-to-end metric BENCHMARK.json
names gets one row per workload: each side's median and IQR, the change in
percent, the pairs the change won, and a verdict:

  gain        the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's IQR, in the better direction;
  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the runs spread wider than the bound (IQR over median), unless
              every change run beats every parent run;
  same        otherwise.

A change whose failed operations per attempted operation rise fails too.
Exit status: 0 when nothing regressed, 1 on a regression or a failure rise,
2 when the inputs cannot be compared (provenance differs, too few pairs, the
sides did not alternate).
"""
import argparse
import json
import os
import statistics
import sys

PROVENANCE_KEYS = ("compiler", "simd", "cpu", "nproc", "threads")


class Incomparable(Exception):
    pass


def load_runs(paths):
    provenance, runs = None, []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        prov = {k: doc["provenance"].get(k) for k in PROVENANCE_KEYS}
        if provenance is None:
            provenance = prov
        elif prov != provenance:
            raise Incomparable(f"{path}: provenance {prov} differs from "
                               f"{provenance}")
        runs += [r for r in doc["runs"] if not r.get("trace")]
    return provenance, runs


def pair_runs(parent, change):
    """{workload: [(parent_run, change_run)]}, matched by (workload, seed)."""
    def index(runs):
        out = {}
        for r in runs:
            out.setdefault((r["workload"], r["seed"]), []).append(r)
        return out
    p_idx, c_idx = index(parent), index(change)
    pairs = {}
    for key in sorted(set(p_idx) & set(c_idx)):
        for p, c in zip(p_idx[key], c_idx[key]):
            pairs.setdefault(key[0], []).append((p, c))
    return pairs


def check_alternation(pairs):
    """The side that ran first must alternate over the pairs, in time."""
    ordered = sorted(pairs, key=lambda pc: min(pc[0]["started_at"],
                                               pc[1]["started_at"]))
    firsts = [p["started_at"] < c["started_at"] for p, c in ordered]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def quartiles(vs):
    if len(vs) < 2:
        return vs[0], vs[0]
    q1, _, q3 = statistics.quantiles(vs, n=4)
    return q1, q3


def judge(parent, change, bound, better):
    """Verdict for one metric on one workload from paired values."""
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    cq1, cq3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gain = sign * (cm - pm) / abs(pm)  # > 0: the change is better
    spread = max((pq3 - pq1) / abs(pm), (cq3 - cq1) / abs(cm))
    row = {"parent": pm, "parent_iqr": (pq1, pq3), "change": cm,
           "change_iqr": (cq1, cq3), "delta": (cm - pm) / abs(pm),
           "wins": wins, "pairs": len(parent), "spread": spread}
    if wins >= 0.9 * len(parent) and gain > 0 and abs(cm - pm) > pq3 - pq1:
        row["verdict"] = "gain"
    elif -gain > bound:
        row["verdict"] = "regression"
    elif spread > bound and not all(sign * (c - p) > 0
                                    for c in change for p in parent):
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "same"
    return row


def failed_frac(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(bench, parent_paths, change_paths, min_pairs):
    """Returns (rows, failure_rises); raises Incomparable."""
    p_prov, parent = load_runs(parent_paths)
    c_prov, change = load_runs(change_paths)
    if p_prov != c_prov:
        raise Incomparable(f"provenance differs: parent {p_prov}, "
                           f"change {c_prov}")
    pairs = pair_runs(parent, change)
    if not pairs:
        raise Incomparable("no (workload, seed) pairs in common")
    rows, rises = [], []
    for workload, pcs in sorted(pairs.items()):
        if len(pcs) < min_pairs:
            raise Incomparable(f"{workload}: {len(pcs)} pairs, need "
                               f"{min_pairs}")
        if not check_alternation(pcs):
            raise Incomparable(f"{workload}: the side that ran first does "
                               "not alternate")
        p_runs = [p for p, _ in pcs]
        c_runs = [c for _, c in pcs]
        if failed_frac(c_runs) > failed_frac(p_runs):
            rises.append((workload, failed_frac(p_runs),
                          failed_frac(c_runs)))
        for m in bench["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in p_runs]
            cv = [r["metrics"][m["name"]]["value"] for r in c_runs]
            row = judge(pv, cv, m["bound"], m["better"])
            row.update(workload=workload, metric=m["name"], unit=m["unit"],
                       bound=m["bound"])
            rows.append(row)
    return rows, rises


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--min-pairs", type=int, default=10)
    ap.add_argument("--benchmark", default=os.path.join(
        here, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    try:
        rows, rises = compare(bench, args.parent, args.change, args.min_pairs)
    except Incomparable as e:
        print(f"compare.py: cannot compare: {e}", file=sys.stderr)
        return 2
    print(f"{'workload':<13} {'metric':<16} {'parent median [IQR]':<32} "
          f"{'change median [IQR]':<32} {'delta':>7} {'wins':>6} "
          f"{'bound':>6}  verdict")
    for r in rows:
        side = lambda med, iqr: f"{med:.4g} [{iqr[0]:.4g}, {iqr[1]:.4g}]"
        print(f"{r['workload']:<13} {r['metric']:<16} "
              f"{side(r['parent'], r['parent_iqr']):<32} "
              f"{side(r['change'], r['change_iqr']):<32} "
              f"{100 * r['delta']:>+6.1f}% {r['wins']:>3}/{r['pairs']:<2} "
              f"{100 * r['bound']:>5.0f}%  {r['verdict']}")
    for workload, p, c in rises:
        print(f"{workload}: failed operations rose from {p:.3g} to {c:.3g} "
              "of attempted")
    regressed = any(r["verdict"] == "regression" for r in rows)
    return 1 if regressed or rises else 0


if __name__ == "__main__":
    sys.exit(main())
