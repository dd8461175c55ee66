#include "gsknn/model/autotune.hpp"

#include <algorithm>

#include "gsknn/common/timer.hpp"
#include "gsknn/data/generators.hpp"
#include "gsknn/model/perf_model.hpp"

namespace gsknn::model {

std::vector<BlockingParams> tune_candidates(const TuneOptions& opts) {
  const SimdLevel level = cpu_features().best_level();
  const BlockingParams base = default_blocking(level);
  const CacheInfo& cache = cache_info();

  // Scale factors around each cache-derived block size; the model's
  // residency rules bound how far up we may go (no candidate whose packed
  // panel overflows the next cache level by more than 2×).
  const double scales[] = {0.5, 0.75, 1.0, 1.5};
  std::vector<BlockingParams> out;
  for (double sd : scales) {
    for (double sm : scales) {
      BlockingParams b = base;
      b.dc = std::max(16, static_cast<int>(base.dc * sd) / 8 * 8);
      b.mc = std::max(b.mr, static_cast<int>(base.mc * sm) / b.mr * b.mr);
      // Residency checks (allow 2× headroom over the nominal rule).
      const std::size_t l1_need =
          static_cast<std::size_t>(b.mr + b.nr) * b.dc * sizeof(double);
      const std::size_t l2_need =
          static_cast<std::size_t>(b.mc) * b.dc * sizeof(double);
      if (l1_need > 2 * cache.l1d || l2_need > 2 * cache.l2) continue;
      if (!b.valid()) continue;
      out.push_back(b);
    }
  }
  // Rank by model-predicted time for the tuning shape; keep the shortlist.
  const MachineParams& mp = machine();
  const ProblemShape shape{opts.m, opts.n, opts.d, opts.k};
  std::sort(out.begin(), out.end(), [&](const BlockingParams& a,
                                        const BlockingParams& b) {
    return predicted_time(Method::kVar1, shape, mp, a) <
           predicted_time(Method::kVar1, shape, mp, b);
  });
  if (static_cast<int>(out.size()) > opts.max_candidates) {
    out.resize(static_cast<std::size_t>(opts.max_candidates));
  }
  return out;
}

TuneResult autotune(const TuneOptions& opts) {
  TuneResult result;
  const auto candidates = tune_candidates(opts);

  const PointTable X = make_uniform(opts.d, opts.m + opts.n, 0x7A4Eu);
  std::vector<int> q(static_cast<std::size_t>(opts.m));
  std::vector<int> r(static_cast<std::size_t>(opts.n));
  for (int i = 0; i < opts.m; ++i) q[static_cast<std::size_t>(i)] = i;
  for (int j = 0; j < opts.n; ++j) r[static_cast<std::size_t>(j)] = opts.m + j;

  result.best_seconds = 1e300;
  for (const BlockingParams& bp : candidates) {
    KnnConfig cfg;
    cfg.blocking = bp;
    cfg.variant = Variant::kVar1;
    cfg.norm = opts.norm;
    NeighborTable t(opts.m, opts.k);
    double best = 1e300;
    for (int rep = 0; rep < opts.reps; ++rep) {
      t.reset();
      WallTimer w;
      knn_kernel(X, q, r, t, cfg);
      best = std::min(best, w.seconds());
    }
    result.trials.emplace_back(bp, best);
    if (best < result.best_seconds) {
      result.best_seconds = best;
      result.best = bp;
    }
  }
  std::sort(result.trials.begin(), result.trials.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return result;
}

}  // namespace gsknn::model
