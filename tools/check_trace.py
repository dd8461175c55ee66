#!/usr/bin/env python3
"""Validate a GSKNN trace file against the Chrome trace_event schema.

The library's TraceSink (gsknn/common/trace.hpp, CLI --trace) emits
`{"traceEvents": [...], "otherData": {...}}` JSON. This tool checks that a
file actually honors the contract Perfetto/chrome://tracing rely on —
well-formed JSON, complete ("X") events with non-negative ts/dur, metadata
("M") thread-name records, known phase names, consistent span/track
accounting against otherData — and exits nonzero on the first violation.
It is the schema gate behind `ctest -L observability`.

Usage:
    tools/check_trace.py trace.json [--min-spans N] [--min-tracks N]
                         [--require-phase NAME ...] [--verbose]
"""

import argparse
import sys

from check_metrics import fail, load_json

# Phase names the serializer can emit (telemetry::Phase).
PHASE_NAMES = {
    "pack_q", "pack_r", "micro", "select", "merge", "collect", "sq2d",
}

OTHER_DATA_KEYS = {
    "ring_kb": int,
    "spans": int,
    "dropped_spans": int,
    "thread_tracks": int,
    "clock": str,
    "ticks_per_us": (int, float),
}


def check_event(i, ev, tracks):
    """Validate one traceEvents entry; returns 'X' or 'M'."""
    if not isinstance(ev, dict):
        fail(f"event {i}: not an object")
    ph = ev.get("ph")
    if ph not in ("X", "M"):
        fail(f"event {i}: unexpected ph {ph!r} (serializer emits X and M only)")
    if not isinstance(ev.get("pid"), int) or not isinstance(ev.get("tid"), int):
        fail(f"event {i}: pid/tid must be integers: {ev}")
    if tracks is not None and not 0 <= ev["tid"] < max(tracks, 1):
        fail(f"event {i}: tid {ev['tid']} outside [0, {tracks})")
    if ph == "M":
        if ev.get("name") != "thread_name":
            fail(f"event {i}: metadata event is not a thread_name record: {ev}")
        if not isinstance(ev.get("args", {}).get("name"), str):
            fail(f"event {i}: thread_name without args.name: {ev}")
        return "M"
    if ev.get("name") not in PHASE_NAMES:
        fail(f"event {i}: unknown phase name {ev.get('name')!r}")
    if ev.get("cat") != "gsknn":
        fail(f"event {i}: cat is {ev.get('cat')!r}, expected 'gsknn'")
    for field in ("ts", "dur"):
        v = ev.get(field)
        if not isinstance(v, (int, float)) or v < 0:
            fail(f"event {i}: {field} must be a non-negative number, got {v!r}")
    args = ev.get("args", {})
    if not isinstance(args, dict) or not all(
            isinstance(v, int) for v in args.values()):
        fail(f"event {i}: span args must be integer panel indices: {args}")
    return "X"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="trace JSON file to validate")
    ap.add_argument("--min-spans", type=int, default=1,
                    help="require at least N complete spans (default 1)")
    ap.add_argument("--min-tracks", type=int, default=1,
                    help="require at least N thread tracks (default 1)")
    ap.add_argument("--require-phase", action="append", default=[],
                    metavar="NAME", choices=sorted(PHASE_NAMES),
                    help="require at least one span of phase NAME "
                         "(repeatable)")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()

    trace = load_json(args.trace)
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        fail("top level must be an object with a traceEvents array")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        fail("traceEvents is not an array")

    other = trace.get("otherData")
    if not isinstance(other, dict):
        fail("otherData metadata object missing")
    for key, types in OTHER_DATA_KEYS.items():
        if key not in other:
            fail(f"otherData.{key} missing")
        if not isinstance(other[key], types):
            fail(f"otherData.{key} has wrong type: {other[key]!r}")
    if other["clock"] not in ("tsc", "steady_ns"):
        fail(f"otherData.clock is {other['clock']!r}")

    tracks = other["thread_tracks"]
    spans = 0
    meta = 0
    for i, ev in enumerate(events):
        kind = check_event(i, ev, tracks)
        if kind == "X":
            spans += 1
        else:
            meta += 1

    # Accounting must agree with the serializer's own metadata: every
    # retained span becomes exactly one X event, every used track exactly
    # one thread_name record.
    if spans != other["spans"]:
        fail(f"{spans} X events but otherData.spans = {other['spans']}")
    if meta != min(tracks, 256):
        fail(f"{meta} thread_name records but thread_tracks = {tracks}")
    if spans < args.min_spans:
        fail(f"only {spans} spans recorded, expected >= {args.min_spans}")
    if tracks < args.min_tracks:
        fail(f"only {tracks} thread tracks, expected >= {args.min_tracks}")
    if other["dropped_spans"] < 0:
        fail("negative dropped_spans")

    by_phase = {}
    for ev in events:
        if ev["ph"] == "X":
            by_phase[ev["name"]] = by_phase.get(ev["name"], 0) + 1
    for name in args.require_phase:
        if name not in by_phase:
            fail(f"no {name} span recorded")
    if args.verbose:
        for name in sorted(by_phase):
            print(f"  {name}: {by_phase[name]} spans")
    print(f"check_trace: ok: {spans} spans on {tracks} track(s), "
          f"{other['dropped_spans']} dropped, clock {other['clock']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
