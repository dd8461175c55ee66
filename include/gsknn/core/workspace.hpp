// Closed-form workspace planning for the six-loop kernel
// (docs/ROBUSTNESS.md).
//
// The BLIS-style blocked nest makes workspace need a pure function of the
// blocking parameters: the shared packed reference panel + distance buffer,
// plus one packed query panel (+ norms + deferred-selection candidate
// buffers) per thread. plan_knn_workspace() computes that footprint exactly
// — byte-for-byte what the driver will carve from its WorkspaceArenas — and,
// when a cap is set, walks the degradation ladder:
//
//   1. demote Var#6 to Var#5 (the full m×n distance matrix cannot shrink;
//      Var#5 is the paper's bounded-memory variant, bitwise-identical);
//   2. halve nc (floor: one register tile, nr);
//   3. halve mc (floor: one register tile, mr);
//   4. halve dc, only when it strictly shrinks the total (shrinking dc
//      below d *adds* a carry buffer on the Var#1 path) — floor 32;
//
// re-checking the footprint after every step. Every step preserves bitwise
// results: the micro-kernels accumulate depth strictly sequentially through
// the carry buffer and selection is arrival-order-independent (see
// docs/CONTRACT.md), so retiling changes only where block boundaries fall.
// A cap still unreachable at the floors reports fits == false and the
// driver fails with Status::kResourceExhausted before touching the result.
#pragma once

#include <cstddef>

#include "gsknn/core/knn.hpp"

namespace gsknn {

/// Resolved workspace decision for one kernel call.
struct WorkspacePlan {
  Variant variant = Variant::kVar1;  ///< after any Var#6 -> Var#5 demotion
  BlockingParams blocking;           ///< after balancing and retiling
  int threads = 1;
  std::size_t shared_bytes = 0;      ///< packed Rc + norms + distance buffer
  std::size_t per_thread_bytes = 0;  ///< packed Qc + norms + defer buffers
  std::size_t cap_bytes = 0;         ///< the cap the plan honored (0 = none)
  int retile_steps = 0;              ///< ladder steps taken (telemetry)
  bool fits = true;                  ///< false: cap unreachable at the floors

  std::size_t total_bytes() const {
    return shared_bytes +
           static_cast<std::size_t>(threads) * per_thread_bytes;
  }
};

/// Retile floors (documented: the ladder never tiles below these, so a
/// capped call is never silently slower than one register tile per panel
/// dimension and a 32-deep depth block).
inline constexpr int kWorkspaceDcFloor = 32;

namespace core {

/// Balance mc so the 4th loop's block count divides evenly over `threads`
/// (the paper's "dynamically deciding mc", §2.5). Exposed for the driver
/// and the plan, which must agree on it.
int balanced_mc(int m, int mc, int mr, int threads);

/// Plan the workspace for a fully-resolved call: `variant` is concrete (not
/// kAuto), `bp` already balanced to `threads`, `tmr`/`tnr` the selected
/// micro-kernel's register tile, `elem` = sizeof(distance scalar).
/// `cap_bytes` == 0 means unlimited. `defer_possible` tells the plan the
/// Var#1 deferred-selection buffers may be carved (k >= kDeferMinK).
/// `packed_refs` plans a warm call served from a PackedRefs cache: the
/// packed Rc panel and reference norms live in the cache (budgeted there,
/// not here), so they leave the shared footprint, and the degradation
/// ladder is restricted to the steps that keep the cache's block geometry
/// intact — Var#6 demotion and mc halving; nc and dc are pinned (retiling
/// them would misalign the kernel against the cached blocks).
WorkspacePlan plan_workspace(int m, int n, int d, Variant variant,
                             const BlockingParams& bp, int tmr, int tnr,
                             int threads, bool needs_norms,
                             bool defer_possible, std::size_t elem,
                             std::size_t cap_bytes, bool packed_refs = false);

}  // namespace core

/// Resolve and plan the workspace the way knn_kernel would for this call —
/// variant resolution, micro-kernel/blocking selection, thread balancing,
/// cap resolution (cfg.max_workspace_bytes, else GSKNN_MAX_WORKSPACE) and
/// the degradation ladder. Exposed so callers and tests can size caps
/// against the natural footprint without running the kernel. T = double or
/// float. Throws StatusError(kBadConfig) for the same blockings the kernel
/// rejects.
template <typename T>
WorkspacePlan plan_knn_workspace(int m, int n, int d, int k,
                                 const KnnConfig& cfg = {});

}  // namespace gsknn
