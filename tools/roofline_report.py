#!/usr/bin/env python3
"""Roofline / efficiency report for a GSKNN profile JSON.

Joins one profile (CLI --profile, gsknn_profile_json(), or a bench's
ref_profile field) against the machine ceilings it carries — peak GFLOPS
and the streaming-bandwidth peak implied by the §2.6 model's tau_b — and
reports, per phase:

  * time share, IPC, stall fraction and cache-miss rates (PMU attribution);
  * memory traffic (LLC misses x 64B) and achieved bandwidth;
  * for the flop-carrying phase: arithmetic intensity, the roofline
    ceiling min(peak_gflops, AI * peak_gbs), and achieved/attainable.

Kernel-level efficiency against the paper's analytical model
(derived.gflops vs derived.model_gflops) is always reported; phases or
kernels below --threshold of their ceiling are flagged, and the flag count
is the exit code driver (--strict makes flags fail the run, for CI).

Without PMU access (profile has pmu.enabled == false) the hardware-derived
columns are skipped and the report degrades to the time + model-efficiency
view — it never fails just because perf counters were unavailable.

Usage:
    tools/roofline_report.py prof.json [--threshold 0.5] [--strict]
"""

import argparse
import json
import sys

CACHE_LINE = 64
PHASES = ("pack_q", "pack_r", "micro", "select", "merge", "collect", "sq2d")
# Phases whose work is the kernel's (2d+3)mn flops: the fused micro-kernel,
# plus the GEMM and norm-finish phases of the Algorithm-2.1 baseline.
FLOP_PHASES = {"micro", "sq2d"}


def ratio(num, den):
    return num / den if den else 0.0


def kernel_flops(prof):
    """(2d+3)*m*n — the normalized flop count the paper's GFLOPS uses."""
    return (2.0 * prof.get("d", 0) + 3.0) * prof.get("m", 0) * prof.get("n", 0)


def phase_rows(prof):
    """Assemble per-phase measurement rows from the profile sections."""
    seconds = prof.get("phases", {})
    pmu = prof.get("pmu", {}).get("phases", {})
    wall = prof.get("wall_seconds", 0.0)
    flops = kernel_flops(prof)
    flop_secs = sum(seconds.get(p, 0.0) for p in FLOP_PHASES)
    rows = []
    for name in PHASES:
        secs = seconds.get(name, 0.0)
        if secs <= 0.0:
            continue
        ev = pmu.get(name, {})
        cycles = ev.get("cycles", 0)
        instr = ev.get("instructions", 0)
        bytes_moved = ev.get("llc_misses", 0) * CACHE_LINE
        row = {
            "phase": name,
            "seconds": secs,
            "share": ratio(secs, wall),
            "ipc": ratio(instr, cycles),
            "stall_frac": ratio(ev.get("stall_cycles", 0), cycles),
            "l1_mpki": 1000.0 * ratio(ev.get("l1d_misses", 0), instr),
            "llc_mpki": 1000.0 * ratio(ev.get("llc_misses", 0), instr),
            "gbs": ratio(bytes_moved, secs) / 1e9,
            "bytes": bytes_moved,
        }
        if name in FLOP_PHASES and flop_secs > 0.0:
            # Attribute the kernel's flops across its flop phases by time.
            row["gflops"] = ratio(flops * ratio(secs, flop_secs), secs) / 1e9
            row["ai"] = ratio(flops * ratio(secs, flop_secs), bytes_moved)
        rows.append(row)
    return rows


def report(prof, threshold):
    """Print the report; returns the list of flagged inefficiencies."""
    flags = []
    alg = prof.get("algorithm", "?")
    pmu_on = bool(prof.get("pmu", {}).get("enabled"))
    derived = prof.get("derived", {})
    peak_gflops = derived.get("peak_gflops", 0.0)
    peak_gbs = derived.get("peak_gbs", 0.0)
    gflops = derived.get("gflops", 0.0)
    model_gflops = derived.get("model_gflops", 0.0)

    print(f"roofline report: {alg} "
          f"m={prof.get('m')} n={prof.get('n')} d={prof.get('d')} "
          f"k={prof.get('k')} threads={prof.get('threads')}")
    print(f"  ceilings: {peak_gflops:.2f} GFLOPS compute, "
          f"{peak_gbs:.2f} GB/s stream (model tau_b)")

    # Kernel-level efficiency vs the analytical model — always available.
    if model_gflops > 0.0:
        eff = ratio(gflops, model_gflops)
        marker = ""
        if eff < threshold:
            marker = "  <-- below threshold"
            flags.append(f"kernel at {eff:.0%} of model prediction")
        print(f"  measured {gflops:.2f} GFLOPS = {eff:.0%} of model's "
              f"{model_gflops:.2f}{marker}")
    if peak_gflops > 0.0:
        print(f"  measured {gflops:.2f} GFLOPS = "
              f"{ratio(gflops, peak_gflops):.0%} of machine peak")

    if not pmu_on:
        print("  (no hardware counters in this profile — run where "
              "perf_event_open is permitted for the per-phase roofline)")

    rows = phase_rows(prof)
    if rows:
        hdr = f"  {'phase':<10} {'seconds':>10} {'share':>7}"
        if pmu_on:
            hdr += (f" {'ipc':>6} {'stall':>6} {'l1mpki':>7} {'llcmpki':>8}"
                    f" {'GB/s':>7} {'AI':>7} {'ceil':>7} {'ach':>6}")
        print(hdr)
    for row in rows:
        line = f"  {row['phase']:<10} {row['seconds']:>10.6f} {row['share']:>6.1%}"
        if pmu_on:
            line += (f" {row['ipc']:>6.2f} {row['stall_frac']:>6.1%}"
                     f" {row['l1_mpki']:>7.2f} {row['llc_mpki']:>8.2f}"
                     f" {row['gbs']:>7.2f}")
            if "ai" in row and row["bytes"] > 0:
                ceiling = min(peak_gflops, row["ai"] * peak_gbs)
                achieved = ratio(row["gflops"], ceiling)
                line += f" {row['ai']:>7.2f} {ceiling:>7.2f} {achieved:>6.1%}"
                if achieved < threshold:
                    line += "  <-- below threshold"
                    flags.append(
                        f"phase {row['phase']} at {achieved:.0%} of its "
                        f"roofline ceiling")
            else:
                line += f" {'-':>7} {'-':>7} {'-':>6}"
        print(line)

    if not prof.get("counters_enabled"):
        print("  (work counters not collected — the GEMM baseline does not "
              "count; fused-kernel profiles carry exact tallies)")
    return flags


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile", help="profile JSON (CLI --profile output)")
    ap.add_argument("--threshold", type=float, default=0.5,
                    help="flag phases below this fraction of their ceiling "
                         "(default 0.5)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 when anything is flagged (CI gate)")
    args = ap.parse_args()

    try:
        with open(args.profile) as f:
            prof = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"roofline_report: cannot parse {args.profile}: {e}")
        return 2

    flags = report(prof, args.threshold)
    for flag in flags:
        print(f"  FLAG: {flag}")
    if flags and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
