#!/usr/bin/env python3
"""Validate GSKNN aggregate-metrics exports against their schemas.

The library's always-on metrics registry (gsknn/common/metrics.hpp, CLI
--metrics / --metrics-prom) exports one JSON object and a Prometheus text
exposition. This tool checks both against the contract documented in
docs/OBSERVABILITY.md — fixed entry-point/status/counter axes, 64-bucket
log2 histograms whose counts reconcile with their bucket sums, cumulative
Prometheus buckets that agree with _count, a 60x1s rolling window whose
headline calls/errors equal its series totals plus fixed-label windowed
gauge families (quantile 0.5/0.99, slo latency/availability) — and exits
nonzero on the first violation. It is the schema gate behind
`ctest -L observability`.

Usage:
    tools/check_metrics.py [--json FILE] [--prom FILE]
                           [--require-entry NAME] [--require-drift f64|f32]
                           [--require-counter NAME] [--verbose]
"""

import argparse
import json
import os
import sys

ENTRY_POINTS = [
    "kernel_f64", "kernel_f32", "parallel_refs", "batch",
    "gemm_baseline", "single_loop", "rkd_forest", "lsh",
    "serve_interactive", "serve_bulk",
]
STATUSES = [
    "ok", "invalid_argument", "bad_index", "bad_config", "non_finite",
    "unsupported", "internal", "resource_exhausted", "deadline_exceeded",
    "cancelled", "stale",
]
COUNTERS = [
    "workspace_retiled_calls", "workspace_retile_steps",
    "trace_spans_dropped", "pmu_multiplexed_reads", "pack_hits",
    "pack_misses", "pack_evictions", "cache_bytes",
    "serve_enqueued", "serve_fused_calls", "serve_fused_queries",
    "serve_cancelled", "serve_expired", "serve_shed_predictive",
    "serve_doomed_evicted", "serve_watchdog_fires", "serve_breaker_open",
]
SHAPE_DIMS = ["m", "n", "d", "k"]
HIST_BUCKETS = 64
WINDOW_BUCKETS = 60
SLO_KEYS = [
    "latency_target_s", "latency_quantile", "availability_target",
    "latency_burn_rate", "availability_burn_rate",
]
SERIES_KEYS = ["epoch_sec", "calls", "errors", "latency_sum_ns",
               "drift_count"]

PROM_FAMILIES = {
    "gsknn_metrics_enabled": "gauge",
    "gsknn_calls_total": "counter",
    "gsknn_latency_seconds": "histogram",
    "gsknn_shape": "histogram",
    "gsknn_model_drift_log2": "histogram",
    "gsknn_events_total": "counter",
    "gsknn_window_calls": "gauge",
    "gsknn_window_errors": "gauge",
    "gsknn_window_error_rate": "gauge",
    "gsknn_window_latency_seconds": "gauge",
    "gsknn_window_drift_log2": "gauge",
    "gsknn_window_burn_rate": "gauge",
    "gsknn_serve_health": "gauge",
}


# The running checker's name (check_metrics, check_diag or check_trace),
# which prefixes every verdict line.
TOOL = os.path.splitext(os.path.basename(sys.argv[0]))[0] or "check_metrics"


def fail(msg):
    print(f"{TOOL}: FAIL: {msg}")
    sys.exit(1)


def check_hist(where, h, count_key="count"):
    """Validate one {count, sum*, buckets[64]} histogram object."""
    if not isinstance(h, dict):
        fail(f"{where}: not an object")
    buckets = h.get("buckets")
    if not isinstance(buckets, list) or len(buckets) != HIST_BUCKETS:
        fail(f"{where}: buckets must be a {HIST_BUCKETS}-element array")
    if not all(isinstance(b, int) and b >= 0 for b in buckets):
        fail(f"{where}: buckets must be non-negative integers")
    count = h.get(count_key)
    if not isinstance(count, int) or count != sum(buckets):
        fail(f"{where}: count {count!r} != bucket sum {sum(buckets)}")
    return count


def load_json(path):
    """Parse a JSON file (metrics snapshot, trace, ...)."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")


def check_json(m, require_entries=(), require_drift=(), require_counters=(),
               exact_counts=True):
    """Validate one parsed metrics snapshot; return (m, total calls).

    A call bumps its status count, latency histogram and shape histograms
    with separate relaxed stores, so a snapshot taken while other threads
    record may see some of them and not the others. exact_counts=False
    skips the cross-field count equalities for such live snapshots.
    """
    if not isinstance(m, dict):
        fail("metrics snapshot must be a JSON object")
    if m.get("metrics_version") != 1:
        fail(f"metrics_version is {m.get('metrics_version')!r}, expected 1")
    if not isinstance(m.get("enabled"), bool):
        fail("enabled must be a boolean")

    eps = m.get("entry_points")
    if not isinstance(eps, dict) or sorted(eps) != sorted(ENTRY_POINTS):
        fail(f"entry_points keys {sorted(eps or {})} != {sorted(ENTRY_POINTS)}")
    total_calls = 0
    for name in ENTRY_POINTS:
        ep = eps[name]
        calls = ep.get("calls")
        if not isinstance(calls, dict) or sorted(calls) != sorted(STATUSES):
            fail(f"{name}.calls must have exactly the {len(STATUSES)} statuses")
        if not all(isinstance(v, int) and v >= 0 for v in calls.values()):
            fail(f"{name}.calls values must be non-negative integers")
        ep_calls = sum(calls.values())
        total_calls += ep_calls
        lat = check_hist(f"{name}.latency_ns", ep.get("latency_ns"))
        # Every recorded call contributes exactly one latency sample.
        if exact_counts and lat != ep_calls:
            fail(f"{name}: {ep_calls} calls but {lat} latency samples")
        for q in ("p50_ns", "p99_ns"):
            if not isinstance(ep.get(q), int) or ep[q] < 0:
                fail(f"{name}.{q} must be a non-negative integer")

    shape = m.get("shape")
    if not isinstance(shape, dict) or sorted(shape) != sorted(SHAPE_DIMS):
        fail("shape must have exactly the m/n/d/k axes")
    for dim in SHAPE_DIMS:
        n = check_hist(f"shape.{dim}", shape[dim])
        # Each call records one sample per shape axis.
        if exact_counts and n != total_calls:
            fail(f"shape.{dim}: {n} samples but {total_calls} calls recorded")

    drift = m.get("model_drift")
    if not isinstance(drift, dict):
        fail("model_drift object missing")
    if drift.get("center_bucket") != HIST_BUCKETS // 2:
        fail(f"model_drift.center_bucket is {drift.get('center_bucket')!r}")
    if not isinstance(drift.get("buckets_per_log2"), int):
        fail("model_drift.buckets_per_log2 missing")
    for prec in ("f64", "f32"):
        check_hist(f"model_drift.{prec}", drift.get(prec))
        if not isinstance(drift[prec].get("sum_millilog2"), int):
            fail(f"model_drift.{prec}.sum_millilog2 must be an integer")

    win = m.get("window")
    if not isinstance(win, dict):
        fail("window object missing")
    if win.get("buckets") != WINDOW_BUCKETS or win.get("bucket_seconds") != 1:
        fail(f"window geometry {win.get('buckets')!r}x"
             f"{win.get('bucket_seconds')!r}s, expected {WINDOW_BUCKETS}x1s")
    for key in ("now_sec", "calls", "errors", "p50_ns", "p99_ns"):
        if not isinstance(win.get(key), int) or win[key] < 0:
            fail(f"window.{key} must be a non-negative integer")
    for key in ("error_rate", "drift_mean_log2"):
        if not isinstance(win.get(key), (int, float)):
            fail(f"window.{key} must be a number")
    if not 0.0 <= win["error_rate"] <= 1.0:
        fail(f"window.error_rate {win['error_rate']} outside [0, 1]")
    slo = win.get("slo")
    if not isinstance(slo, dict) or sorted(slo) != sorted(SLO_KEYS):
        fail(f"window.slo keys {sorted(slo or {})} != {sorted(SLO_KEYS)}")
    for key in SLO_KEYS:
        if not isinstance(slo[key], (int, float)) or slo[key] < 0:
            fail(f"window.slo.{key} must be a non-negative number")
    series = win.get("series")
    if not isinstance(series, list) or len(series) > WINDOW_BUCKETS:
        fail(f"window.series must be a list of <= {WINDOW_BUCKETS} slots")
    series_calls = series_errors = 0
    for i, slot in enumerate(series):
        if not isinstance(slot, dict) or sorted(slot) != sorted(SERIES_KEYS):
            fail(f"window.series[{i}] keys {sorted(slot or {})} != "
                 f"{sorted(SERIES_KEYS)}")
        if not all(isinstance(slot[k], int) and slot[k] >= 0
                   for k in SERIES_KEYS):
            fail(f"window.series[{i}] values must be non-negative integers")
        series_calls += slot["calls"]
        series_errors += slot["errors"]
    # The headline window aggregates are exactly the series totals.
    if series_calls != win["calls"] or series_errors != win["errors"]:
        fail(f"window calls/errors {win['calls']}/{win['errors']} != series "
             f"totals {series_calls}/{series_errors}")
    epochs = [slot["epoch_sec"] for slot in series]
    if epochs != sorted(epochs):
        fail("window.series epochs not ascending")

    counters = m.get("counters")
    if not isinstance(counters, dict) or sorted(counters) != sorted(COUNTERS):
        fail(f"counters keys {sorted(counters or {})} != {sorted(COUNTERS)}")
    if not all(isinstance(v, int) and v >= 0 for v in counters.values()):
        fail("counter values must be non-negative integers")

    # Serving health gauge (docs/SERVING.md "Overload & degradation"):
    # 0 = healthy, 1 = degraded, 2 = unhealthy.
    health = m.get("serve_health")
    if not isinstance(health, int) or not 0 <= health <= 2:
        fail(f"serve_health {health!r} must be an integer in [0, 2]")

    for name in require_entries:
        if name not in eps:
            fail(f"--require-entry {name}: unknown entry point")
        if sum(eps[name]["calls"].values()) < 1:
            fail(f"--require-entry {name}: no calls recorded")
    for prec in require_drift:
        if drift[prec]["count"] < 1:
            fail(f"--require-drift {prec}: no drift samples recorded")
    for name in require_counters:
        if name not in counters:
            fail(f"--require-counter {name}: unknown counter")
        if counters[name] < 1:
            fail(f"--require-counter {name}: counter is zero")
    return m, total_calls


def parse_prom(path):
    """Parse the exposition into {family: {"type": t, "samples": [(name, labels, value)]}}."""
    families = {}
    current = None
    try:
        lines = open(path).read().splitlines()
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    for ln, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                fail(f"line {ln}: malformed TYPE line")
            current = parts[2]
            families.setdefault(current, {"type": parts[3], "samples": []})
            continue
        if line.startswith("#"):
            continue
        # sample: name{labels} value  |  name value
        try:
            name_labels, value = line.rsplit(" ", 1)
            float(value)
        except ValueError:
            fail(f"line {ln}: malformed sample: {line!r}")
        labels = {}
        name = name_labels
        if "{" in name_labels:
            if not name_labels.endswith("}"):
                fail(f"line {ln}: unterminated label set")
            name, labelstr = name_labels[:-1].split("{", 1)
            for pair in labelstr.split(","):
                if "=" not in pair:
                    fail(f"line {ln}: malformed label {pair!r}")
                k, v = pair.split("=", 1)
                if len(v) < 2 or v[0] != '"' or v[-1] != '"':
                    fail(f"line {ln}: label value must be quoted: {pair!r}")
                labels[k] = v[1:-1]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                break
        fam = families.get(base) or families.get(name)
        if fam is None:
            fail(f"line {ln}: sample {name!r} before any TYPE line")
        fam["samples"].append((name, labels, float(value)))
    return families


def check_prom(path):
    families = parse_prom(path)
    for fam, ftype in PROM_FAMILIES.items():
        if fam not in families:
            fail(f"family {fam} missing")
        if families[fam]["type"] != ftype:
            fail(f"family {fam} has TYPE {families[fam]['type']}, "
                 f"expected {ftype}")

    # gsknn_calls_total must cover the full entry x status grid.
    seen = {(s[1].get("entry"), s[1].get("status"))
            for s in families["gsknn_calls_total"]["samples"]}
    want = {(e, s) for e in ENTRY_POINTS for s in STATUSES}
    if seen != want:
        fail(f"gsknn_calls_total grid mismatch: missing {sorted(want - seen)[:4]}"
             f" extra {sorted(seen - want)[:4]}")

    seen_events = {s[1].get("event")
                   for s in families["gsknn_events_total"]["samples"]}
    if seen_events != set(COUNTERS):
        fail(f"gsknn_events_total events {sorted(seen_events)} != "
             f"{sorted(COUNTERS)}")

    # Windowed gauges: fixed label sets so dashboards never see a partial
    # family (a burn-rate panel with only one SLO reads as "no data").
    quantiles = {s[1].get("quantile")
                 for s in families["gsknn_window_latency_seconds"]["samples"]}
    if quantiles != {"0.5", "0.99"}:
        fail(f"gsknn_window_latency_seconds quantiles {sorted(quantiles)} != "
             f"['0.5', '0.99']")
    slos = {s[1].get("slo")
            for s in families["gsknn_window_burn_rate"]["samples"]}
    if slos != {"latency", "availability"}:
        fail(f"gsknn_window_burn_rate slo labels {sorted(slos)} != "
             f"['availability', 'latency']")
    rate = [s[2] for s in families["gsknn_window_error_rate"]["samples"]]
    if len(rate) != 1 or not 0.0 <= rate[0] <= 1.0:
        fail(f"gsknn_window_error_rate must be one sample in [0, 1]: {rate}")
    health = [s[2] for s in families["gsknn_serve_health"]["samples"]]
    if len(health) != 1 or health[0] not in (0.0, 1.0, 2.0):
        fail(f"gsknn_serve_health must be one sample in {{0, 1, 2}}: {health}")

    # Histogram series: cumulative non-decreasing buckets, +Inf == _count.
    for fam in ("gsknn_latency_seconds", "gsknn_shape",
                "gsknn_model_drift_log2"):
        series = {}
        for name, labels, value in families[fam]["samples"]:
            key = tuple(sorted((k, v) for k, v in labels.items()
                               if k != "le"))
            s = series.setdefault(key, {"buckets": [], "sum": None,
                                        "count": None, "inf": None})
            if name.endswith("_bucket"):
                if labels.get("le") == "+Inf":
                    s["inf"] = value
                else:
                    s["buckets"].append((float(labels["le"]), value))
            elif name.endswith("_sum"):
                s["sum"] = value
            elif name.endswith("_count"):
                s["count"] = value
        if not series:
            fail(f"{fam}: no series")
        for key, s in series.items():
            if s["inf"] is None or s["count"] is None or s["sum"] is None:
                fail(f"{fam}{dict(key)}: missing +Inf/_sum/_count")
            edges = [e for e, _ in s["buckets"]]
            if edges != sorted(edges):
                fail(f"{fam}{dict(key)}: le edges not increasing")
            values = [v for _, v in s["buckets"]]
            if any(b > a for b, a in zip(values, values[1:])):
                fail(f"{fam}{dict(key)}: cumulative buckets decrease")
            if values and values[-1] != s["inf"]:
                fail(f"{fam}{dict(key)}: last bucket {values[-1]} != "
                     f"+Inf {s['inf']}")
            if s["inf"] != s["count"]:
                fail(f"{fam}{dict(key)}: +Inf {s['inf']} != _count "
                     f"{s['count']}")
    return families


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", help="metrics JSON snapshot to validate")
    ap.add_argument("--prom", help="Prometheus exposition to validate")
    ap.add_argument("--require-entry", action="append", default=[],
                    metavar="NAME",
                    help="require >= 1 recorded call for this entry point")
    ap.add_argument("--require-drift", action="append", default=[],
                    choices=["f64", "f32"],
                    help="require >= 1 model-drift sample for this precision")
    ap.add_argument("--require-counter", action="append", default=[],
                    metavar="NAME",
                    help="require this counter to be >= 1 (e.g. pack_hits)")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()
    if not args.json and not args.prom:
        ap.error("nothing to do: pass --json and/or --prom")

    checked = []
    if args.json:
        m, total = check_json(load_json(args.json), args.require_entry,
                              args.require_drift, args.require_counter)
        checked.append(f"json ({total} calls)")
        if args.verbose:
            for name in ENTRY_POINTS:
                calls = sum(m["entry_points"][name]["calls"].values())
                if calls:
                    print(f"  {name}: {calls} calls, "
                          f"p50 {m['entry_points'][name]['p50_ns']} ns")
    if args.prom:
        fams = check_prom(args.prom)
        nsamples = sum(len(f["samples"]) for f in fams.values())
        checked.append(f"prometheus ({nsamples} samples)")

    print(f"check_metrics: ok: {', '.join(checked)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
