// Baselines the paper evaluates GSKNN against.
//
// knn_gemm_baseline is Algorithm 2.1: collect Q and R into dense matrices,
// compute the full distance matrix through a GEMM (here our own Goto-style
// blas::dgemm), add the squared norms, then select per query row. The phases
// are individually timed — they are exactly the Tcoll/Tgemm/Tsq2d/Theap
// columns of the paper's Table 5. Following §2.1, we compute Cᵀ = Rᵀ·Q so
// each query's distances are contiguous for the selection pass.
//
// knn_single_loop_baseline is the FLANN/ANN/MLPACK pattern: one scalar
// distance loop per (query, reference) pair, no blocking, no packing.
#include <cassert>
#include <cmath>
#include <limits>

#include "gsknn/blas/gemm.hpp"
#include "gsknn/common/aligned.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/common/threads.hpp"
#include "gsknn/core/entry_metrics.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/select/select.hpp"
#include "profile.hpp"

namespace gsknn {

namespace {

Status gemm_baseline_impl(const PointTable& X, std::span<const int> qidx,
                          std::span<const int> ridx, NeighborTable& result,
                          const KnnConfig& cfg,
                          std::span<const int> result_rows) {
  const int m = static_cast<int>(qidx.size());
  const int n = static_cast<int>(ridx.size());
  const int d = X.dim();
  const int k = result.k();
  check_knn_args(X, qidx, ridx, result, cfg, result_rows);
  if (cfg.norm != Norm::kL2Sq && cfg.norm != Norm::kCosine) {
    // The GEMM decomposition exists only for the Euclidean and cosine
    // distances — the baseline limitation §1 highlights.
    throw StatusError(Status::kUnsupported,
                      "gemm baseline supports the l2 and cosine norms only");
  }
  if (m == 0 || n == 0) return Status::kOk;
  const bool cosine = (cfg.norm == Norm::kCosine);
  const auto heap_row = [&](int i) {
    return result_rows.empty() ? i : result_rows[static_cast<std::size_t>(i)];
  };

  // The four Table-5 phases are spans of one recorder: collect and the
  // GEMM on this thread, the finish and selection passes on each worker of
  // one parallel region (for-nowait loops, so each worker's span ends when
  // its chunk does — load imbalance shows up on the timeline).
  const int threads = resolve_threads(cfg.threads);
  telemetry::Recorder rec(cfg.profile, threads, cfg.trace);

  // Phase 1 — collect: gather Q (d×m), R (d×n) and the norms from X.
  telemetry::PhaseSpan span = rec.span(0, telemetry::Phase::kCollect, m, n);
  AlignedBuffer<double> q(static_cast<std::size_t>(d) * m);
  AlignedBuffer<double> r(static_cast<std::size_t>(d) * n);
  AlignedBuffer<double> q2(static_cast<std::size_t>(m));
  AlignedBuffer<double> r2(static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i) {
    const double* src = X.col(qidx[static_cast<std::size_t>(i)]);
    double* dst = q.data() + static_cast<long>(i) * d;
    for (int p = 0; p < d; ++p) dst[p] = src[p];
    q2[static_cast<std::size_t>(i)] = X.norms2()[qidx[static_cast<std::size_t>(i)]];
  }
  for (int j = 0; j < n; ++j) {
    const double* src = X.col(ridx[static_cast<std::size_t>(j)]);
    double* dst = r.data() + static_cast<long>(j) * d;
    for (int p = 0; p < d; ++p) dst[p] = src[p];
    r2[static_cast<std::size_t>(j)] = X.norms2()[ridx[static_cast<std::size_t>(j)]];
  }

  // Phase 2 — GEMM: Cᵀ(n×m) = α·RᵀQ (α = −2 for ℓ2, 1 for cosine), so
  // query i's distances are the contiguous column C[:, i].
  span.next(telemetry::Phase::kMicro, m, n);
  AlignedBuffer<double> c(static_cast<std::size_t>(n) * m);
  blas::dgemm(blas::Trans::kYes, blas::Trans::kNo, n, m, d,
              cosine ? 1.0 : -2.0, r.data(), d, q.data(), d, 0.0, c.data(), n);
  span.close();

  // Phase 3 — finish the distances: ℓ2 adds ‖q_i‖² + ‖r_j‖²; cosine
  // normalizes by the norms. Phase 4 runs in the same parallel region.
  GSKNN_OMP(omp parallel num_threads(threads))
  {
    const int tid = thread_id();
    telemetry::PhaseSpan sq2d = rec.span(tid, telemetry::Phase::kSq2d, m, n);
    GSKNN_OMP(omp for schedule(static) nowait)
    for (int i = 0; i < m; ++i) {
      double* ci = c.data() + static_cast<long>(i) * n;
      const double qi = q2[static_cast<std::size_t>(i)];
      if (cosine) {
        // Guard on denom <= 0 (not > 0) so a NaN denominator — non-finite
        // coordinates — reaches the NaN-producing division instead of being
        // laundered into the well-defined zero-norm answer of 1.
        for (int j = 0; j < n; ++j) {
          const double denom = std::sqrt(qi * r2[static_cast<std::size_t>(j)]);
          ci[j] = (denom <= 0.0) ? 1.0 : 1.0 - ci[j] / denom;
        }
      } else {
        // Clamp written so NaN survives: (0 > NaN) is false, so a NaN
        // expansion stays NaN and the selection contract rejects it.
        for (int j = 0; j < n; ++j) {
          const double v = ci[j] + qi + r2[static_cast<std::size_t>(j)];
          ci[j] = (0.0 > v) ? 0.0 : v;
        }
      }
    }
    sq2d.close();
    GSKNN_OMP(omp barrier)  // every distance finished before selection

    // Phase 4 — selection: STL max-heap per query row.
    SelectScratch scratch;
    telemetry::PhaseSpan select =
        rec.span(tid, telemetry::Phase::kSelect, m, n);
    GSKNN_OMP(omp for schedule(static) nowait)
    for (int i = 0; i < m; ++i) {
      const int row = heap_row(i);
      const double* ci = c.data() + static_cast<long>(i) * n;
      if (!cfg.dedup) {
        select_stl(ci, ridx.data(), n, result.row_dists(row),
                   result.row_ids(row), k, scratch);
      } else {
        // Dedup-aware path for solver integration (Table 1 "ref").
        // try_insert_unique applies the full accept predicate (lexicographic
        // tie-break + non-finite reject); a distance-only prefilter here
        // would drop equal-distance candidates with lower ids.
        for (int j = 0; j < n; ++j) {
          result.try_insert_unique(row, ci[j],
                                   ridx[static_cast<std::size_t>(j)]);
        }
      }
    }
    select.close();
  }

  const SimdLevel level = cpu_features().best_level();
  core::finish_profile(rec, {.algorithm = "gemm_baseline",
                             .shape = {m, n, d, k},
                             .threads = threads,
                             .level = level,
                             .blocking = default_blocking(level),
                             .method = model::Method::kGemmBaseline});
  return Status::kOk;
}

}  // namespace

void knn_gemm_baseline(const PointTable& X, std::span<const int> qidx,
                       std::span<const int> ridx, NeighborTable& result,
                       const KnnConfig& cfg,
                       std::span<const int> result_rows) {
  core::throw_if_error(core::run_entry(
      metrics::EntryPoint::kGemmBaseline, static_cast<int>(qidx.size()),
      static_cast<int>(ridx.size()), X.dim(), result.k(), [&] {
        return gemm_baseline_impl(X, qidx, ridx, result, cfg, result_rows);
      }));
}

namespace {

template <Norm N>
double scalar_distance(const double* a, const double* b, int d, double lp) {
  double acc = 0.0;
  if constexpr (N == Norm::kL2Sq) {
    (void)lp;
    for (int p = 0; p < d; ++p) {
      const double t = a[p] - b[p];
      acc += t * t;
    }
  } else if constexpr (N == Norm::kCosine) {
    (void)lp;
    double dot = 0.0, aa = 0.0, bb = 0.0;
    for (int p = 0; p < d; ++p) {
      dot += a[p] * b[p];
      aa += a[p] * a[p];
      bb += b[p] * b[p];
    }
    const double denom = std::sqrt(aa * bb);
    // denom <= 0 (not > 0) so a NaN denominator stays NaN; see the GEMM
    // baseline finish step.
    return (denom <= 0.0) ? 1.0 : 1.0 - dot / denom;
  } else if constexpr (N == Norm::kL1) {
    (void)lp;
    for (int p = 0; p < d; ++p) acc += std::abs(a[p] - b[p]);
  } else if constexpr (N == Norm::kLInf) {
    (void)lp;
    // max cannot propagate NaN (std::max and vmaxpd both drop it), so a
    // non-finite term poisons the distance explicitly — mirroring the fused
    // driver, which NaN-poisons the packed panels of non-finite points.
    for (int p = 0; p < d; ++p) {
      const double t = std::abs(a[p] - b[p]);
      if (!std::isfinite(t)) return std::numeric_limits<double>::quiet_NaN();
      acc = (acc > t) ? acc : t;
    }
  } else {
    for (int p = 0; p < d; ++p) acc += std::pow(std::abs(a[p] - b[p]), lp);
  }
  return acc;
}

template <Norm N>
void single_loop_impl(const PointTable& X, std::span<const int> qidx,
                      std::span<const int> ridx, NeighborTable& result,
                      const KnnConfig& cfg, std::span<const int> result_rows) {
  const int m = static_cast<int>(qidx.size());
  const int n = static_cast<int>(ridx.size());
  const int d = X.dim();
  GSKNN_OMP(omp parallel for schedule(static)
                num_threads(resolve_threads(cfg.threads)))
  for (int i = 0; i < m; ++i) {
    const int row = result_rows.empty() ? i : result_rows[static_cast<std::size_t>(i)];
    const double* qp = X.col(qidx[static_cast<std::size_t>(i)]);
    for (int j = 0; j < n; ++j) {
      const int id = ridx[static_cast<std::size_t>(j)];
      const double dist = scalar_distance<N>(qp, X.col(id), d, cfg.p);
      if (cfg.dedup) {
        result.try_insert_unique(row, dist, id);
      } else {
        result.try_insert(row, dist, id);
      }
    }
  }
}

}  // namespace

void knn_single_loop_baseline(const PointTable& X, std::span<const int> qidx,
                              std::span<const int> ridx,
                              NeighborTable& result, const KnnConfig& cfg,
                              std::span<const int> result_rows) {
  core::throw_if_error(core::run_entry(
      metrics::EntryPoint::kSingleLoop, static_cast<int>(qidx.size()),
      static_cast<int>(ridx.size()), X.dim(), result.k(), [&] {
        check_knn_args(X, qidx, ridx, result, cfg, result_rows);
        switch (cfg.norm) {
          case Norm::kL2Sq:
            single_loop_impl<Norm::kL2Sq>(X, qidx, ridx, result, cfg,
                                          result_rows);
            break;
          case Norm::kL1:
            single_loop_impl<Norm::kL1>(X, qidx, ridx, result, cfg,
                                        result_rows);
            break;
          case Norm::kLInf:
            single_loop_impl<Norm::kLInf>(X, qidx, ridx, result, cfg,
                                          result_rows);
            break;
          case Norm::kLp:
            single_loop_impl<Norm::kLp>(X, qidx, ridx, result, cfg,
                                        result_rows);
            break;
          case Norm::kCosine:
            single_loop_impl<Norm::kCosine>(X, qidx, ridx, result, cfg,
                                            result_rows);
            break;
        }
        return Status::kOk;
      }));
}

}  // namespace gsknn
