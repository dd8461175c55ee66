// Closed-form workspace planning for the six-loop kernel
// (docs/ROBUSTNESS.md).
//
// The BLIS-style blocked nest makes workspace need a pure function of the
// blocking parameters: the shared packed reference panel + distance buffer,
// plus per thread one packed query panel (+ norms), or any Var#5 call's
// row-merge scratch when that is larger. plan_knn_workspace() computes
// that footprint exactly — byte-for-byte what the driver will carve from its
// WorkspaceArenas — and, when a cap is set, walks the degradation ladder:
//
//   1. halve nc (floor: one register tile, nr);
//   2. halve mc (floor: one register tile, mr);
//   3. halve dc, only when it strictly shrinks the total (shrinking dc
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
  BlockingParams blocking;           ///< after balancing and retiling
  int threads = 1;
  std::size_t shared_bytes = 0;      ///< packed Rc + norms + distance buffer
  std::size_t per_thread_bytes = 0;  ///< max(packed Qc + norms, Var#5 scratch)
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

/// Resolve and plan the workspace the way knn_kernel would for this call —
/// variant resolution, micro-kernel/blocking selection, thread balancing,
/// cap resolution (cfg.max_workspace_bytes, else GSKNN_MAX_WORKSPACE) and
/// the degradation ladder — by running the cold kernel's own plan steps, so
/// the two cannot drift. Exposed so callers and tests can size caps
/// against the natural footprint without running the kernel. T = double or
/// float. Throws StatusError(kBadConfig) for the same blockings the kernel
/// rejects.
template <typename T>
WorkspacePlan plan_knn_workspace(int m, int n, int d, int k,
                                 const KnnConfig& cfg = {});

}  // namespace gsknn
