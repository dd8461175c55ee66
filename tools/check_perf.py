#!/usr/bin/env python3
"""Compare a fresh GSKNN_BENCH_JSON run against the committed baseline.

The benches emit JSON-lines rows (one object per measurement; see
bench/bench_util.hpp). This tool reduces both files to per-cell metrics,
compares them with a relative tolerance, and exits nonzero if any cell
regressed beyond it — the perf-trajectory gate behind `ctest -L perf`.

Usage:
    tools/check_perf.py --fresh fresh.json \
        [--baseline bench/baselines/BENCH_baseline.json] \
        [--tolerance 0.25] [--verbose]

Both files may contain rows appended from several runs of the same sweep;
the best observation per cell is used on both sides (kernels are
deterministic, so best-of filters scheduler noise — the same convention as
bench_util.hpp's time_best). The default tolerance is deliberately loose:
single runs on a busy machine swing ±10%, and this gate is meant to catch
real regressions (10s of percent), not noise.
"""

import argparse
import json
import sys
from pathlib import Path

# Per-bench metric registry: which fields identify a cell, which field is
# the metric, and whether lower or higher is better. Benches not listed are
# ignored (their rows still ride along in the trajectory files).
METRICS = {
    "table5_breakdown": {
        "key": ("ref_profile.d", "ref_profile.k"),
        "metric": "gsknn_total_ms",
        "lower_is_better": True,
    },
    "fig6_efficiency_overview": {
        "key": ("m", "k", "d"),
        "metric": "gsknn_gflops",
        "lower_is_better": False,
    },
    "fig5_variant_threshold": {
        "key": ("m", "d", "k"),
        "metric": "var1_gflops",
        "lower_is_better": False,
    },
    "ablation_variants": {
        "key": ("d", "k"),
        "metric": "var1_s",
        "lower_is_better": True,
    },
    "ablation_precision": {
        "key": ("d", "k"),
        "metric": "f32_gflops",
        "lower_is_better": False,
    },
    "micro_pack_cache": {
        "key": ("d", "k", "mode"),
        "metric": "ms",
        "lower_is_better": True,
    },
}


def hard_assert_violations(row):
    """Invariant checks that fail the gate regardless of tolerance. Warm
    packed-refs traffic must move zero packed reference bytes — a nonzero
    count means the cache is silently re-packing, which timing noise could
    hide. Applies to micro_pack_cache warm rows and table5's warm column."""
    out = []
    if row.get("bench") == "micro_pack_cache" and row.get("mode") == "warm":
        if row.get("pack_bytes") not in (0, None):
            out.append(f"micro_pack_cache warm row d={row.get('d')} "
                       f"k={row.get('k')}: pack_bytes="
                       f"{row.get('pack_bytes')} (expected 0)")
    if row.get("bench") == "table5_breakdown":
        if row.get("warm_pack_bytes") not in (0, None):
            out.append(f"table5_breakdown cell d={row.get('d')} "
                       f"k={row.get('k')}: warm_pack_bytes="
                       f"{row.get('warm_pack_bytes')} (expected 0)")
    return out


def get_path(row, dotted):
    """Fetch row['a']['b'] for dotted key 'a.b'; None when absent."""
    cur = row
    for part in dotted.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur


def load_cells(path):
    """Reduce a JSON-lines trajectory file to {(bench, key): best_metric}.
    Also returns the last __provenance header row (bench_util.hpp emits one
    per process) and hard-invariant violations found in the rows."""
    cells = {}
    quick_modes = set()
    violations = []
    provenance = None
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"warning: {path}:{lineno}: unparseable row: {e}",
                      file=sys.stderr)
                continue
            violations.extend(hard_assert_violations(row))
            bench = row.get("bench")
            if bench == "__provenance":
                provenance = {k: row.get(k) for k in
                              ("git", "compiler", "simd", "cpu", "timestamp")}
                continue
            spec = METRICS.get(bench)
            if spec is None:
                continue
            key = tuple(get_path(row, k) for k in spec["key"])
            value = get_path(row, spec["metric"])
            if None in key or value is None:
                continue
            quick_modes.add(bool(row.get("quick")))
            cell = (bench, key)
            best = min if spec["lower_is_better"] else max
            cells[cell] = value if cell not in cells else best(cells[cell], value)
    return cells, quick_modes, violations, provenance


def describe_provenance(p):
    if not isinstance(p, dict):
        return "unknown (no __provenance row)"
    parts = [str(p.get(k) or "?") for k in ("git", "compiler", "simd", "cpu")]
    ts = p.get("timestamp")
    return ", ".join(parts) + (f" @ {ts}" if ts else "")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh", required=True, type=Path,
                    help="JSON-lines file from the run under test")
    ap.add_argument("--baseline", type=Path,
                    default=Path(__file__).resolve().parent.parent
                    / "bench" / "baselines" / "BENCH_baseline.json")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="relative regression allowed per cell (default 0.25)")
    ap.add_argument("--verbose", action="store_true",
                    help="print every cell, not only regressions")
    args = ap.parse_args()

    base_cells, base_quick, _, base_prov = load_cells(args.baseline)
    fresh_cells, fresh_quick, fresh_violations, fresh_prov = \
        load_cells(args.fresh)
    if fresh_violations:
        for v in fresh_violations:
            print(f"VIOLATION  {v}")
        return 1
    if not base_cells:
        print(f"error: no comparable rows in baseline {args.baseline}")
        return 2
    if not fresh_cells:
        print(f"error: no comparable rows in fresh run {args.fresh}")
        return 2
    if base_quick and fresh_quick and base_quick != fresh_quick:
        print("warning: baseline and fresh run used different "
              "GSKNN_BENCH_QUICK modes; comparison is apples-to-oranges",
              file=sys.stderr)
    print(f"# baseline provenance: {describe_provenance(base_prov)}")
    print(f"# fresh provenance:    {describe_provenance(fresh_prov)}")
    if isinstance(base_prov, dict) and isinstance(fresh_prov, dict):
        diff = [k for k in ("git", "compiler", "simd", "cpu")
                if base_prov.get(k) != fresh_prov.get(k)]
        if diff:
            print(f"warning: provenance differs on {', '.join(diff)}; "
                  f"ratios compare different builds/machines",
                  file=sys.stderr)

    regressions = []
    improvements = 0
    compared = 0
    for cell, base in sorted(base_cells.items()):
        if cell not in fresh_cells:
            print(f"warning: cell missing from fresh run: {cell}",
                  file=sys.stderr)
            continue
        bench, key = cell
        fresh = fresh_cells[cell]
        lower = METRICS[bench]["lower_is_better"]
        # ratio > 1 means "worse", whichever direction the metric points.
        ratio = (fresh / base) if lower else (base / fresh)
        compared += 1
        if ratio < 1.0:
            improvements += 1
        status = "REGRESSED" if ratio > 1.0 + args.tolerance else "ok"
        if status != "ok" or args.verbose:
            print(f"{status:>9}  {bench} {key}: baseline={base:.4g} "
                  f"fresh={fresh:.4g} worse-ratio={ratio:.3f}")
        if status != "ok":
            regressions.append(cell)

    print(f"# {compared} cells compared, {improvements} improved, "
          f"{len(regressions)} regressed beyond {args.tolerance:.0%}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
