// Workspace planning for the six-loop driver (gsknn/core/workspace.hpp).
//
// Everything the driver carves from its arenas is computed here first, chunk
// by chunk, with the same rounding WorkspaceArena::alloc applies — the plan
// is byte-exact, not an estimate. The driver's side-effect-free plan steps
// (kernel/blocking resolution, thread balancing, variant and cap resolution)
// live here too, and plan_knn_workspace runs exactly those, so the planner
// and the driver cannot drift.
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
  mk = select_micro<T>(level, cfg.norm);
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
        const MicroKernelT<T> alt = select_micro<T>(lv, cfg.norm);
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

namespace {

/// Balance mc so the 4th loop's block count divides evenly over `threads`
/// (the paper's "dynamically deciding mc", §2.5).
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

/// Mirror of the driver's buffer carving for one (variant, blocking) choice.
/// Every line corresponds to an AlignedBuffer/arena chunk in driver.cpp; the
/// chunk_bytes rounding matches WorkspaceArena::alloc exactly.
template <typename T>
void compute_footprint(int m, int n, int d, int k, Variant variant,
                       bool needs_norms, int tmr, int tnr, bool packed_refs,
                       WorkspacePlan& plan) {
  const BlockingParams& bp = plan.blocking;
  const auto cb = [](std::size_t count, std::size_t es) {
    return WorkspaceArena::chunk_bytes(count, es);
  };
  constexpr std::size_t elem = sizeof(T);

  const std::size_t db_max =
      static_cast<std::size_t>(std::min(d, bp.dc));
  const std::size_t nb_max = static_cast<std::size_t>(std::min(n, bp.nc));
  const std::size_t nbpad_max =
      round_up(nb_max, static_cast<std::size_t>(tnr));

  // Shared: packed Rc panel (+ reference norms at the last depth block).
  // A warm packed-refs call reads both straight out of the cache's resident
  // blocks (budgeted by PackedRefs::Options::budget_bytes), so they leave
  // this call's footprint entirely.
  std::size_t shared = 0;
  if (!packed_refs) {
    shared = cb(nbpad_max * db_max, elem);
    if (needs_norms) shared += cb(nbpad_max, elem);
  }

  // Shared: distance buffer, one padded m × nc panel. Var#1 needs it only
  // to carry the rank-dc accumulation across depth blocks (d > dc); Var#5
  // selects from it. Layout mirrors the driver: Var#1 column-major tiles,
  // Var#5 query-major, both with one extra cache line on the leading
  // dimension.
  const bool needs_cbuf = (variant != Variant::kVar1) || (d > bp.dc);
  if (needs_cbuf) {
    const std::size_t mpad = round_up(static_cast<std::size_t>(m),
                                      static_cast<std::size_t>(tmr));
    const bool c_colmajor = (variant == Variant::kVar1);
    const std::size_t ld = (c_colmajor ? mpad : nbpad_max) + 64 / elem;
    shared += cb(ld * (c_colmajor ? nbpad_max : mpad), elem);
  }

  // Per thread: packed Qc panel (+ query norms) for the largest mc-block.
  // Var#5's row merge carves its scratch (one row's candidates plus its k
  // entries) from the same arena after the 4th loop has finished with it,
  // so a Var#5 thread needs the larger of the two.
  const std::size_t mbpad_max = round_up(
      static_cast<std::size_t>(std::min(m, bp.mc)),
      static_cast<std::size_t>(tmr));
  std::size_t per_thread = cb(mbpad_max * db_max, elem);
  if (needs_norms) per_thread += cb(mbpad_max, elem);
  if (variant != Variant::kVar1) {
    const std::size_t pairs = nb_max + k;
    per_thread = std::max(per_thread, cb(pairs, sizeof(SelPair<T>)));
  }

  plan.shared_bytes = shared;
  plan.per_thread_bytes = per_thread;
}

/// Plan the workspace for a fully-resolved call: `variant` is concrete (not
/// kAuto), `bp` already balanced to `threads`, `tmr`/`tnr` the selected
/// micro-kernel's register tile. `cap_bytes` == 0 means unlimited.
/// `packed_refs` plans a warm call served from a PackedRefs cache: the
/// packed Rc panel and reference norms live in the cache (budgeted there,
/// not here), so they leave the shared footprint, and the degradation
/// ladder is restricted to the step that keeps the cache's block geometry
/// intact — mc halving; nc and dc are pinned (retiling them would misalign
/// the kernel against the cached blocks).
template <typename T>
WorkspacePlan plan_workspace(int m, int n, int d, int k, Variant variant,
                             const BlockingParams& bp, int tmr, int tnr,
                             int threads, bool needs_norms,
                             std::size_t cap_bytes, bool packed_refs) {
  assert(variant != Variant::kAuto &&
         "plan_workspace wants a concrete variant");
  WorkspacePlan plan;
  plan.blocking = bp;
  plan.threads = threads;
  plan.cap_bytes = cap_bytes;
  if (m <= 0 || n <= 0 || d <= 0) return plan;  // driver returns before packing

  const auto footprint = [&](WorkspacePlan& p) {
    compute_footprint<T>(m, n, d, k, variant, needs_norms, tmr, tnr,
                         packed_refs, p);
  };
  footprint(plan);
  if (cap_bytes == 0) return plan;

  // Degradation ladder (see the header comment): every step is bitwise-
  // result-preserving, so the only cost of a cap is extra packing passes.
  // Warm packed-refs calls only take the step that leaves the cache's block
  // geometry (nc, dc) alone — the kernel must walk the cached blocks as
  // they were packed.
  while (plan.total_bytes() > cap_bytes) {
    if (!packed_refs && plan.blocking.nc > tnr) {
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
      footprint(trial);
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
    footprint(plan);
  }
  plan.fits = plan.total_bytes() <= cap_bytes;
  return plan;
}

}  // namespace

template <typename T>
void plan_kernel_tail(int m, int n, int d, int k, const KnnConfig& cfg,
                      bool packed_refs, KernelPlanT<T>& kp) {
  kp.needs_norms = (cfg.norm == Norm::kL2Sq || cfg.norm == Norm::kCosine);
  kp.threads = resolve_threads(cfg.threads);
  kp.bp.mc = balanced_mc(m, kp.bp.mc, kp.mk.mr, kp.threads);
  kp.variant = resolve_variant(m, n, d, k, cfg);
  const std::size_t cap = cfg.max_workspace_bytes != 0
                              ? cfg.max_workspace_bytes
                              : max_workspace_env();
  kp.ws = plan_workspace<T>(m, n, d, k, kp.variant, kp.bp, kp.mk.mr,
                            kp.mk.nr, kp.threads, kp.needs_norms, cap,
                            packed_refs);
  kp.bp = kp.ws.blocking;
}

template <typename T>
void plan_kernel(int m, int n, int d, int k, const KnnConfig& cfg,
                 KernelPlanT<T>& kp) {
  resolve_kernel_and_blocking<T>(cpu_features().best_level(), cfg, kp.mk,
                                 kp.bp, kp.chosen);
  plan_kernel_tail<T>(m, n, d, k, cfg, /*packed_refs=*/false, kp);
}

template void plan_kernel_tail<double>(int, int, int, int, const KnnConfig&,
                                       bool, KernelPlanT<double>&);
template void plan_kernel_tail<float>(int, int, int, int, const KnnConfig&,
                                      bool, KernelPlanT<float>&);
template void plan_kernel<double>(int, int, int, int, const KnnConfig&,
                                  KernelPlanT<double>&);
template void plan_kernel<float>(int, int, int, int, const KnnConfig&,
                                 KernelPlanT<float>&);

}  // namespace core

template <typename T>
WorkspacePlan plan_knn_workspace(int m, int n, int d, int k,
                                 const KnnConfig& cfg) {
  core::KernelPlanT<T> kp;
  core::plan_kernel<T>(m, n, d, k, cfg, kp);
  return kp.ws;
}

template WorkspacePlan plan_knn_workspace<double>(int, int, int, int,
                                                  const KnnConfig&);
template WorkspacePlan plan_knn_workspace<float>(int, int, int, int,
                                                 const KnnConfig&);

}  // namespace gsknn
