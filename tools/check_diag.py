#!/usr/bin/env python3
"""Validate GSKNN diagnostics output against its schemas.

Two formats come out of the flight-recorder/diagnostics layer
(docs/OBSERVABILITY.md "Flight recorder & SLO windows"):

  bundle   one JSON object from `gsknn_cli doctor`, `gsknn_diag_dump()`, or
           a non-OK-status trigger when diag is linked in: diag_version,
           reason, build/arch/env, an embedded metrics snapshot, the
           serving-health section, the flight-recorder drain, and the
           section-2.6 model table.
  events   versioned JSON-lines from a raw flight-recorder dump (trigger
           without the diag hook, or the fatal-signal handler): a
           flightrec_version header line followed by one event object per
           line. The signal path cannot count ahead, so its header carries
           "events": -1.

The format is auto-detected from the first line; --format forces one.
Exits nonzero on the first violation. This is the schema gate behind the
diag legs of `ctest -L observability`.

Usage:
    tools/check_diag.py FILE [--format bundle|events]
                        [--require-kind KIND] [--require-reason PREFIX]
                        [--verbose]
"""

import argparse
import json
import sys

from check_metrics import ENTRY_POINTS, STATUSES, check_json, fail

EVENT_KINDS = [
    "call_begin", "call_end", "retile", "deadline", "cancel",
    "pack_evict", "pack_update", "stale_reject", "fault",
    "serve_submit", "serve_fuse", "serve_shed", "serve_watchdog",
    "serve_breaker",
]
BUNDLE_KEYS = ["diag_version", "reason", "build", "arch", "env", "metrics",
               "health", "flightrec", "model"]
HEALTH_KEYS = ["serve_health", "state", "window_latency_burn_rate",
               "window_availability_burn_rate", "window_calls",
               "window_errors"]
HEALTH_STATES = {0: "healthy", 1: "degraded", 2: "unhealthy"}
ENV_KNOBS = [
    "GSKNN_METRICS", "GSKNN_FLIGHTREC", "GSKNN_FLIGHTREC_DUMP",
    "GSKNN_FLIGHTREC_TRIGGER", "GSKNN_SLO_LATENCY_MS",
    "GSKNN_SLO_LATENCY_TARGET", "GSKNN_SLO_AVAILABILITY",
    "GSKNN_MAX_WORKSPACE", "GSKNN_FAULT", "GSKNN_PMU", "GSKNN_TRACE_RING_KB",
    "GSKNN_MAX_SIMD", "GSKNN_BENCH_JSON", "GSKNN_BENCH_QUICK",
]
SIMD_LEVELS = ["scalar", "avx2", "avx512"]
MODEL_ROW_KEYS = ["m", "n", "d", "k", "var1_ms", "var6_ms", "gemm_ms",
                  "var1_gflops", "chosen"]
MODEL_GRID = {(8192, 8192, d, k)
              for d in (16, 64, 256, 1024) for k in (16, 128, 512, 2048)}


def check_event(where, ev):
    """Validate one drained flight-recorder event object."""
    if not isinstance(ev, dict):
        fail(f"{where}: not an object")
    for key in ("t_ns", "seq", "value", "m", "n", "d", "k"):
        if not isinstance(ev.get(key), int) or ev[key] < 0:
            fail(f"{where}.{key} must be a non-negative integer")
    if not isinstance(ev.get("thread"), int):
        fail(f"{where}.thread must be an integer")
    if ev.get("kind") not in EVENT_KINDS:
        fail(f"{where}.kind {ev.get('kind')!r} not in {EVENT_KINDS}")
    if ev.get("entry") is not None and ev["entry"] not in ENTRY_POINTS:
        fail(f"{where}.entry {ev.get('entry')!r} not null or a known "
             f"entry point")
    if ev.get("status") not in STATUSES:
        fail(f"{where}.status {ev.get('status')!r} not a known status")
    return ev["kind"]


def check_events_lines(path, lines):
    """Validate a raw JSON-lines flight-recorder dump; return kinds seen."""
    if not lines:
        fail(f"{path}: empty dump")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        fail(f"{path} line 1: not JSON: {e}")
    if header.get("flightrec_version") != 1:
        fail(f"flightrec_version is {header.get('flightrec_version')!r}, "
             f"expected 1")
    if not isinstance(header.get("reason"), str) or not header["reason"]:
        fail("header.reason must be a non-empty string")
    if not isinstance(header.get("dropped"), int) or header["dropped"] < 0:
        fail("header.dropped must be a non-negative integer")
    declared = header.get("events")
    # The async-signal-safe writer emits -1: it streams events without
    # knowing the count up front.
    if not isinstance(declared, int) or declared < -1:
        fail(f"header.events {declared!r} must be an integer >= -1")
    kinds = []
    for ln, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path} line {ln}: not JSON: {e}")
        kinds.append(check_event(f"line {ln}", ev))
    if declared >= 0 and declared != len(kinds):
        fail(f"header declares {declared} events but {len(kinds)} lines "
             f"follow")
    return header["reason"], kinds


def check_bundle(path, doc):
    """Validate one diagnostics bundle; return (reason, kinds seen)."""
    if sorted(doc) != sorted(BUNDLE_KEYS):
        fail(f"bundle keys {sorted(doc)} != {sorted(BUNDLE_KEYS)}")
    if doc["diag_version"] != 1:
        fail(f"diag_version is {doc['diag_version']!r}, expected 1")
    if not isinstance(doc["reason"], str) or not doc["reason"]:
        fail("reason must be a non-empty string")

    build = doc["build"]
    for key in ("git", "compiler"):
        if not isinstance(build.get(key), str) or not build[key]:
            fail(f"build.{key} must be a non-empty string")
    if not isinstance(build.get("cxx_standard"), int):
        fail("build.cxx_standard must be an integer")

    arch = doc["arch"]
    if arch.get("simd_level") not in SIMD_LEVELS:
        fail(f"arch.simd_level {arch.get('simd_level')!r} not in "
             f"{SIMD_LEVELS}")
    feats = arch.get("features")
    want_feats = ["sse2", "avx", "avx2", "fma", "avx512f"]
    if not isinstance(feats, dict) or sorted(feats) != sorted(want_feats):
        fail(f"arch.features keys {sorted(feats or {})} != "
             f"{sorted(want_feats)}")
    if not all(isinstance(v, bool) for v in feats.values()):
        fail("arch.features values must be booleans")
    for group, keys in (("caches", ["l1d", "l2", "l3", "line"]),
                        ("blocking", ["mr", "nr", "dc", "mc", "nc"])):
        obj = arch.get(group)
        if not isinstance(obj, dict) or sorted(obj) != sorted(keys):
            fail(f"arch.{group} keys {sorted(obj or {})} != {sorted(keys)}")
        if not all(isinstance(v, int) and v > 0 for v in obj.values()):
            fail(f"arch.{group} values must be positive integers")

    env = doc["env"]
    if not isinstance(env, dict) or sorted(env) != sorted(ENV_KNOBS):
        fail(f"env keys miss/add knobs: {sorted(set(ENV_KNOBS) ^ set(env))}")
    if not all(v is None or isinstance(v, str) for v in env.values()):
        fail("env values must be strings or null")

    # The embedded snapshot is the same object `--metrics` writes. A bundle
    # may be dumped from a failing call while other threads still record,
    # so its per-call count equalities are not checked.
    check_json(doc["metrics"], exact_counts=False)

    # Serving-health section (docs/SERVING.md "Overload & degradation"):
    # the gauge, its symbolic state, and the burn rates it derives from.
    health = doc["health"]
    if not isinstance(health, dict) or sorted(health) != sorted(HEALTH_KEYS):
        fail(f"health keys {sorted(health or {})} != {sorted(HEALTH_KEYS)}")
    if health["serve_health"] not in HEALTH_STATES:
        fail(f"health.serve_health {health['serve_health']!r} not in [0, 2]")
    if health["state"] != HEALTH_STATES[health["serve_health"]]:
        fail(f"health.state {health['state']!r} disagrees with gauge "
             f"{health['serve_health']}")
    for key in ("window_latency_burn_rate", "window_availability_burn_rate"):
        if not isinstance(health[key], (int, float)) or health[key] < 0:
            fail(f"health.{key} must be a non-negative number")
    for key in ("window_calls", "window_errors"):
        if not isinstance(health[key], int) or health[key] < 0:
            fail(f"health.{key} must be a non-negative integer")

    fr = doc["flightrec"]
    if not isinstance(fr.get("dropped"), int) or fr["dropped"] < 0:
        fail("flightrec.dropped must be a non-negative integer")
    if not isinstance(fr.get("events"), list):
        fail("flightrec.events must be a list")
    kinds = [check_event(f"flightrec.events[{i}]", ev)
             for i, ev in enumerate(fr["events"])]

    model = doc["model"]
    machine = model.get("machine")
    want_machine = ["peak_flops", "tau_b", "tau_l", "eps"]
    if not isinstance(machine, dict) or sorted(machine) != sorted(want_machine):
        fail(f"model.machine keys {sorted(machine or {})} != "
             f"{sorted(want_machine)}")
    if not all(isinstance(v, (int, float)) and v > 0
               for v in machine.values()):
        fail("model.machine values must be positive numbers")
    table = model.get("table")
    if not isinstance(table, list):
        fail("model.table must be a list")
    grid = set()
    for i, row in enumerate(table):
        if not isinstance(row, dict) or sorted(row) != sorted(MODEL_ROW_KEYS):
            fail(f"model.table[{i}] keys {sorted(row or {})} != "
                 f"{sorted(MODEL_ROW_KEYS)}")
        for key in ("var1_ms", "var6_ms", "gemm_ms", "var1_gflops"):
            if not isinstance(row[key], (int, float)) or row[key] <= 0:
                fail(f"model.table[{i}].{key} must be a positive number")
        # The variant kAuto runs at that shape (resolve_variant).
        if row["chosen"] not in ("var1", "var5"):
            fail(f"model.table[{i}].chosen {row['chosen']!r} not "
                 f"var1/var5")
        grid.add((row["m"], row["n"], row["d"], row["k"]))
    if grid != MODEL_GRID:
        fail(f"model.table grid mismatch: missing "
             f"{sorted(MODEL_GRID - grid)[:4]} extra "
             f"{sorted(grid - MODEL_GRID)[:4]}")
    return doc["reason"], kinds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("file", help="bundle JSON or JSON-lines event dump")
    ap.add_argument("--format", choices=["bundle", "events"],
                    help="force a format instead of auto-detecting")
    ap.add_argument("--require-kind", action="append", default=[],
                    metavar="KIND", choices=EVENT_KINDS,
                    help="require >= 1 event of this kind")
    ap.add_argument("--require-reason", metavar="PREFIX",
                    help="require the dump reason to start with PREFIX")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()

    try:
        with open(args.file) as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"cannot read {args.file}: {e}")
    fmt = args.format
    if fmt is None:
        # A bundle is a single JSON object keyed by diag_version; an event
        # dump leads with the flightrec_version header line.
        fmt = "events" if lines and "flightrec_version" in lines[0] \
            else "bundle"

    if fmt == "bundle":
        try:
            doc = json.loads("\n".join(lines))
        except json.JSONDecodeError as e:
            fail(f"cannot parse {args.file} as JSON: {e}")
        reason, kinds = check_bundle(args.file, doc)
    else:
        reason, kinds = check_events_lines(args.file, lines)

    for kind in args.require_kind:
        if kind not in kinds:
            fail(f"--require-kind {kind}: no such event in dump "
                 f"(saw {sorted(set(kinds))})")
    if args.require_reason and not reason.startswith(args.require_reason):
        fail(f"--require-reason {args.require_reason!r}: reason is "
             f"{reason!r}")
    if args.verbose:
        counts = {k: kinds.count(k) for k in sorted(set(kinds))}
        print(f"  reason: {reason}; events by kind: {counts}")
    print(f"check_diag: ok: {fmt} ({len(kinds)} events, reason {reason!r})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
