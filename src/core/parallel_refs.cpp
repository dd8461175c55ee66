// Reference-side data parallelism (§2.5, footnote 5).
//
// The paper's preferred scheme parallelizes the 4th (query) loop because
// reference-side parallelism "may lead to a potential race condition when
// updating the same neighbor list"; its footnote resolves the race on Xeon
// Phi "by creating private-per-thread heaps followed by a parallel merge".
// This is that scheme: each thread runs the sequential kernel over a
// contiguous slice of the references into a private table, then the tables
// are merged (query-parallel, race-free) into the caller's result.
//
// Governance: the private tables are allocated *before* the parallel region
// (an allocation failure maps to kResourceExhausted with the caller's result
// untouched), workers inherit the call's deadline/cancel token, and when any
// worker stops early the merge is skipped entirely — a partial merge would
// blend complete and incomplete slices into rows no flag could describe.
#include <vector>

#include "gsknn/common/metrics.hpp"
#include "gsknn/common/telemetry.hpp"
#include "gsknn/common/threads.hpp"
#include "gsknn/core/entry_metrics.hpp"
#include "gsknn/core/knn.hpp"
#include "profile.hpp"

namespace gsknn {

namespace {

Status parallel_refs_impl(const PointTableT<double>& X,
                          std::span<const int> qidx, std::span<const int> ridx,
                          NeighborTable& result, const KnnConfig& cfg,
                          std::span<const int> result_rows) {
  const int m = static_cast<int>(qidx.size());
  const int n = static_cast<int>(ridx.size());
  // Validate before the OpenMP region: a StatusError thrown by a worker
  // inside #pragma omp parallel could not propagate and would terminate.
  check_knn_args(X, qidx, ridx, result, cfg, result_rows);
  if (m == 0 || n == 0) return Status::kOk;
  const int threads = resolve_threads(cfg.threads);
  const int k = result.k();

  // Not enough reference work to split: run the plain kernel.
  if (threads <= 1 || n < 2 * threads) {
    return knn_kernel_status(X, qidx, ridx, result, cfg, result_rows);
  }

  // Private per-thread tables over identity rows. Dedup (if requested)
  // must only act within a slice here — across slices the same id cannot
  // appear twice unless it appeared twice in ridx, which the merge below
  // handles through the caller's table. Allocated here, not in the region:
  // a std::bad_alloc here reaches the entry bracket (kResourceExhausted,
  // result untouched); past this point it could not escape the region.
  KnnConfig worker_cfg = cfg;
  worker_cfg.threads = 1;
  // Arguments were validated above; don't repeat the opt-in O((m+n)·d)
  // finite scan once per worker.
  worker_cfg.validate = false;
  std::vector<NeighborTable> priv;
  const int chunk = (n + threads - 1) / threads;
  priv.resize(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    if (t * chunk >= n) break;  // empty slice: table stays 0-row
    priv[static_cast<std::size_t>(t)].resize(m, k);
    if (cfg.dedup) priv[static_cast<std::size_t>(t)].enable_dedup_index();
  }

  // Telemetry: concurrent workers must not share one sink, so each records
  // into a private profile that finish_profile adds to its thread slot. The
  // trace sink (if any) IS shared — my_cfg copies it from cfg — because its
  // per-thread rings make concurrent recording safe, giving one unified
  // timeline across the worker kernels and the merge.
  const bool prof = (cfg.profile != nullptr);
  telemetry::Recorder rec(cfg.profile, threads, cfg.trace);
  std::vector<telemetry::KernelProfile> wprof(
      prof ? static_cast<std::size_t>(threads) : 0);
  std::vector<Status> wstat(static_cast<std::size_t>(threads), Status::kOk);

  // One parallel region: the workers, a barrier, then the merge. After the
  // barrier every thread reads the same `wstat`, so the team agrees on
  // whether to merge at all.
  GSKNN_OMP(omp parallel num_threads(threads))
  {
    // The team can be smaller than `threads` (nested in an outer region
    // with nesting capped): each thread then works several slices.
    for (int t = thread_id(); t < threads; t += team_size()) {
      const int lo = t * chunk;
      const int hi = (lo + chunk < n) ? lo + chunk : n;
      if (lo >= hi) continue;
      NeighborTable& mine = priv[static_cast<std::size_t>(t)];
      KnnConfig my_cfg = worker_cfg;
      my_cfg.profile = prof ? &wprof[static_cast<std::size_t>(t)] : nullptr;
      // knn_kernel_status never throws: pressure outcomes (cancellation,
      // deadline, exhaustion — the token/deadline ride in via worker_cfg)
      // come back as a Status this region can carry out safely.
      wstat[static_cast<std::size_t>(t)] = knn_kernel_status(
          X, qidx,
          ridx.subspan(static_cast<std::size_t>(lo),
                       static_cast<std::size_t>(hi - lo)),
          mine, my_cfg);
    }
    GSKNN_OMP(omp barrier)
    bool all_ok = true;
    for (const Status s : wstat) all_ok = all_ok && s == Status::kOk;
    // Parallel merge: each query row is owned by one iteration, so
    // inserting every private candidate into the caller's row is
    // race-free. A for-nowait, so each worker's merge span covers its own
    // chunk.
    if (all_ok) {
      telemetry::PhaseSpan span =
          rec.span(thread_id(), telemetry::Phase::kMerge);
      GSKNN_OMP(omp for schedule(static) nowait)
      for (int i = 0; i < m; ++i) {
        const int row =
            result_rows.empty() ? i : result_rows[static_cast<std::size_t>(i)];
        for (const auto& table : priv) {
          if (table.rows() == 0) continue;
          const double* d = table.row_dists(i);
          const int* ids = table.row_ids(i);
          for (int s = 0; s < table.row_stride(); ++s) {
            if (ids[s] == heap::kNoId) continue;
            if (cfg.dedup) {
              result.try_insert_unique(row, d[s], ids[s]);
            } else {
              result.try_insert(row, d[s], ids[s]);
            }
          }
        }
        // Every worker finished, so this row saw every candidate — re-arm
        // any completion flag left by an earlier interrupted call.
        result.mark_row_complete(row);
      }
      span.close();
    }
  }
  for (const Status s : wstat) {
    if (s != Status::kOk) return s;  // merge skipped; result untouched
  }

  // The workers are parts of ONE logical kernel call: their profiles become
  // their threads' shares of it, timed by the region's wall.
  const Variant v = resolve_variant(m, n, X.dim(), k, worker_cfg);
  const SimdLevel level = cpu_features().best_level();
  core::finish_profile(
      rec,
      {.algorithm = "gsknn_parallel_refs",
       .shape = {m, n, X.dim(), k},
       .threads = threads,
       .variant = static_cast<int>(v),
       .level = level,
       .blocking = cfg.blocking.value_or(default_blocking(level)),
       .method = model::method_for(v)},
      wprof);
  return Status::kOk;
}

}  // namespace

Status knn_kernel_parallel_refs_status(const PointTableT<double>& X,
                                       std::span<const int> qidx,
                                       std::span<const int> ridx,
                                       NeighborTable& result,
                                       const KnnConfig& cfg,
                                       std::span<const int> result_rows) {
  return core::run_entry(
      metrics::EntryPoint::kParallelRefs, static_cast<int>(qidx.size()),
      static_cast<int>(ridx.size()), X.dim(), result.k(), [&] {
        return parallel_refs_impl(X, qidx, ridx, result, cfg, result_rows);
      });
}

void knn_kernel_parallel_refs(const PointTableT<double>& X,
                              std::span<const int> qidx,
                              std::span<const int> ridx,
                              NeighborTable& result, const KnnConfig& cfg,
                              std::span<const int> result_rows) {
  core::throw_if_error(knn_kernel_parallel_refs_status(X, qidx, ridx, result,
                                                       cfg, result_rows));
}

}  // namespace gsknn
