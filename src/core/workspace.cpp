// Workspace planning for the six-loop driver (gsknn/core/workspace.hpp).
//
// Everything the driver carves from its arenas is computed here first, chunk
// by chunk, with the same rounding WorkspaceArena::alloc applies — the plan
// is byte-exact, not an estimate. The kernel/blocking resolution helpers the
// driver shares live here too, so the planner and the driver cannot drift.
#include <algorithm>
#include <cassert>

#include "gsknn/common/threads.hpp"
#include "gsknn/common/workspace.hpp"
#include "gsknn/core/workspace.hpp"
#include "micro.hpp"

namespace gsknn {
namespace core {

template <typename T>
void resolve_kernel_and_blocking(SimdLevel level, const KnnConfig& cfg,
                                 MicroKernelT<T>& mk, BlockingParams& bp,
                                 SimdLevel& chosen) {
  mk = select_micro_t<T>(level, cfg.norm);
  chosen = level;
  if (cfg.blocking.has_value()) {
    bp = *cfg.blocking;
    if (!bp.valid()) {
      throw StatusError(Status::kBadConfig,
                        "gsknn: invalid blocking parameters");
    }
    if (bp.mr != mk.mr || bp.nr != mk.nr) {
      for (SimdLevel lv : {SimdLevel::kAvx2, SimdLevel::kScalar}) {
        if (lv > level) continue;
        const MicroKernelT<T> alt = select_micro_t<T>(lv, cfg.norm);
        if (alt.fn != nullptr && alt.mr == bp.mr && alt.nr == bp.nr) {
          mk = alt;
          chosen = lv;
          return;
        }
      }
      throw StatusError(
          Status::kBadConfig,
          "gsknn: blocking mr/nr do not match any available micro-kernel");
    }
  } else {
    bp = derive_blocking(mk.mr, mk.nr, sizeof(T));
  }
}

template void resolve_kernel_and_blocking<double>(SimdLevel, const KnnConfig&,
                                                  MicroKernelT<double>&,
                                                  BlockingParams&, SimdLevel&);
template void resolve_kernel_and_blocking<float>(SimdLevel, const KnnConfig&,
                                                 MicroKernelT<float>&,
                                                 BlockingParams&, SimdLevel&);

int balanced_mc(int m, int mc, int mr, int threads) {
  assert(m >= 0 && mc > 0 && mr > 0 && threads >= 1);
  if (threads <= 1 || m == 0) return mc;
  const int blocks = static_cast<int>(ceil_div(m, mc));
  const int target = static_cast<int>(round_up(blocks, threads));
  int out = static_cast<int>(
      round_up(ceil_div(static_cast<std::size_t>(m),
                        static_cast<std::size_t>(target)),
               static_cast<std::size_t>(mr)));
  return out < mr ? mr : out;
}

namespace {

/// Mirror of the driver's buffer carving for one (variant, blocking) choice.
/// Every line corresponds to an AlignedBuffer/arena chunk in driver.cpp; the
/// chunk_bytes rounding matches WorkspaceArena::alloc exactly.
void compute_footprint(int m, int n, int d, bool needs_norms,
                       bool defer_possible, std::size_t elem,
                       int tmr, int tnr, bool packed_refs,
                       WorkspacePlan& plan) {
  const BlockingParams& bp = plan.blocking;
  const auto cb = [](std::size_t count, std::size_t es) {
    return WorkspaceArena::chunk_bytes(count, es);
  };

  const std::size_t db_max =
      static_cast<std::size_t>(std::min(d, bp.dc));
  const std::size_t nbpad_max = round_up(
      static_cast<std::size_t>(std::min(n, bp.nc)),
      static_cast<std::size_t>(tnr));

  // Shared: packed Rc panel (+ reference norms at the last depth block).
  // A warm packed-refs call reads both straight out of the cache's resident
  // blocks (budgeted by PackedRefs::Options::budget_bytes), so they leave
  // this call's footprint entirely.
  std::size_t shared = 0;
  if (!packed_refs) {
    shared = cb(nbpad_max * db_max, elem);
    if (needs_norms) shared += cb(nbpad_max, elem);
  }

  // Shared: distance buffer. Var#1 needs it only to carry the rank-dc
  // accumulation across depth blocks (d > dc); Var#5 holds the current
  // nc-wide panel; Var#6 the full m × n matrix. Layout mirrors the driver:
  // Var#1 column-major tiles, the rest query-major, both with one extra
  // cache line on the leading dimension.
  const bool needs_cbuf = (plan.variant != Variant::kVar1) || (d > bp.dc);
  if (needs_cbuf) {
    const int width = (plan.variant == Variant::kVar6) ? n : std::min(n, bp.nc);
    const std::size_t wpad = round_up(static_cast<std::size_t>(width),
                                      static_cast<std::size_t>(tnr));
    const std::size_t mpad = round_up(static_cast<std::size_t>(m),
                                      static_cast<std::size_t>(tmr));
    const bool c_colmajor = (plan.variant == Variant::kVar1);
    const std::size_t ld = (c_colmajor ? mpad : wpad) + 64 / elem;
    shared += cb(ld * (c_colmajor ? wpad : mpad), elem);
  }

  // Per thread: packed Qc panel (+ query norms) for the largest mc-block,
  // plus the Var#1 deferred-selection candidate buffers when the call could
  // take the deferred path (k >= kDeferMinK).
  const std::size_t mbpad_max = round_up(
      static_cast<std::size_t>(std::min(m, bp.mc)),
      static_cast<std::size_t>(tmr));
  std::size_t per_thread = cb(mbpad_max * db_max, elem);
  if (needs_norms) per_thread += cb(mbpad_max, elem);
  if (defer_possible && plan.variant == Variant::kVar1) {
    per_thread += cb(mbpad_max * kCandBufLen, elem);         // cand_d
    per_thread += cb(mbpad_max * kCandBufLen, sizeof(int));  // cand_id
    per_thread += cb(mbpad_max, sizeof(int));                // cand_cnt
  }

  plan.shared_bytes = shared;
  plan.per_thread_bytes = per_thread;
}

}  // namespace

WorkspacePlan plan_workspace(int m, int n, int d, Variant variant,
                             const BlockingParams& bp, int tmr, int tnr,
                             int threads, bool needs_norms,
                             bool defer_possible, std::size_t elem,
                             std::size_t cap_bytes, bool packed_refs) {
  assert(variant != Variant::kAuto && "plan_workspace wants a concrete variant");
  WorkspacePlan plan;
  plan.variant = variant;
  plan.blocking = bp;
  plan.threads = threads;
  plan.cap_bytes = cap_bytes;
  if (m <= 0 || n <= 0 || d <= 0) return plan;  // driver returns before packing

  compute_footprint(m, n, d, needs_norms, defer_possible, elem, tmr, tnr,
                    packed_refs, plan);
  if (cap_bytes == 0) return plan;

  // Degradation ladder (see the header comment): every step is bitwise-
  // result-preserving, so the only cost of a cap is extra packing passes.
  // Warm packed-refs calls only take the steps that leave the cache's block
  // geometry (nc, dc) alone — the kernel must walk the cached blocks as
  // they were packed.
  while (plan.total_bytes() > cap_bytes) {
    if (plan.variant == Variant::kVar6) {
      // The full m × n distance matrix cannot be retiled away; Var#5 is the
      // paper's bounded-memory formulation of the same selection.
      plan.variant = Variant::kVar5;
    } else if (!packed_refs && plan.blocking.nc > tnr) {
      plan.blocking.nc = std::max(
          tnr, static_cast<int>(round_up(
                   static_cast<std::size_t>(plan.blocking.nc / 2),
                   static_cast<std::size_t>(tnr))));
    } else if (plan.blocking.mc > tmr) {
      plan.blocking.mc = std::max(
          tmr, static_cast<int>(round_up(
                   static_cast<std::size_t>(plan.blocking.mc / 2),
                   static_cast<std::size_t>(tmr))));
    } else if (!packed_refs && plan.blocking.dc > kWorkspaceDcFloor) {
      // Shrinking dc below d ADDS the rank-dc carry buffer on the Var#1
      // path, so only take the step when it strictly helps.
      WorkspacePlan trial = plan;
      trial.blocking.dc = std::max(kWorkspaceDcFloor, plan.blocking.dc / 2);
      compute_footprint(m, n, d, needs_norms, defer_possible, elem, tmr, tnr,
                        packed_refs, trial);
      if (trial.total_bytes() >= plan.total_bytes()) break;
      plan.blocking = trial.blocking;
      plan.shared_bytes = trial.shared_bytes;
      plan.per_thread_bytes = trial.per_thread_bytes;
      ++plan.retile_steps;
      continue;
    } else {
      break;  // at every floor and still over the cap
    }
    ++plan.retile_steps;
    compute_footprint(m, n, d, needs_norms, defer_possible, elem, tmr, tnr,
                      packed_refs, plan);
  }
  plan.fits = plan.total_bytes() <= cap_bytes;
  return plan;
}

}  // namespace core

template <typename T>
WorkspacePlan plan_knn_workspace(int m, int n, int d, int k,
                                 const KnnConfig& cfg) {
  const Variant variant = resolve_variant(m, n, d, k, cfg);
  const SimdLevel level = cpu_features().best_level();
  core::MicroKernelT<T> mk;
  BlockingParams bp;
  SimdLevel chosen = level;
  core::resolve_kernel_and_blocking<T>(level, cfg, mk, bp, chosen);
  const int threads = resolve_threads(cfg.threads);
  bp.mc = core::balanced_mc(m, bp.mc, mk.mr, threads);
  const bool needs_norms =
      (cfg.norm == Norm::kL2Sq || cfg.norm == Norm::kCosine);
  const bool defer_possible = k >= core::kDeferMinK;
  const std::size_t cap = cfg.max_workspace_bytes != 0
                              ? cfg.max_workspace_bytes
                              : max_workspace_env();
  return core::plan_workspace(m, n, d, variant, bp, mk.mr, mk.nr, threads,
                              needs_norms, defer_possible, sizeof(T), cap);
}

template WorkspacePlan plan_knn_workspace<double>(int, int, int, int,
                                                  const KnnConfig&);
template WorkspacePlan plan_knn_workspace<float>(int, int, int, int,
                                                 const KnnConfig&);

}  // namespace gsknn
