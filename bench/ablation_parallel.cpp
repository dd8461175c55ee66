// Parallel-scheme ablation (§2.5): data-parallel (one kernel, OpenMP over
// the 4th loop) vs task-parallel (many independent kernels, model-driven LPT
// scheduling) on a skewed batch of leaf-sized problems, plus the scheduler's
// predicted makespan against naive round-robin.
//
// Both schemes use the OpenMP default thread count, so OMP_NUM_THREADS=1,
// 2, 4 runs them at each count (EXPERIMENTS.md §2.5 has 4-vCPU numbers).
// The scheduler quality metrics (model-estimated makespans) do not depend
// on the host.
#include <cstdio>

#include "bench_util.hpp"
#include "gsknn/common/threads.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/data/generators.hpp"
#include "gsknn/model/perf_model.hpp"

using namespace gsknn;
using namespace gsknn::bench;

int main() {
  print_header("Parallel-scheme ablation (§2.5)");
  const int N = scaled(32768, 8192);
  const int d = 32;
  const int k = 16;
  const PointTable X = make_uniform(d, N, 0x9A2);
  std::printf("# N = %d, d = %d, k = %d, threads available = %d\n", N, d, k,
              resolve_threads(0));

  // A skewed batch: group sizes 256 … 4096 (task-parallel's target regime).
  std::vector<std::vector<int>> groups;
  int at = 0;
  int size = 256;
  while (at + size <= N) {
    groups.push_back(iota_ids(size, at));
    at += size;
    size = (size * 2 > 4096) ? 256 : size * 2;
  }
  std::printf("# batch: %zu kernels, sizes 256..4096\n", groups.size());

  // Data-parallel: run each kernel with all threads, sequentially.
  {
    NeighborTable t(N, k);
    const double secs = time_best(2, [&] {
      t.reset();
      for (const auto& g : groups) {
        knn_kernel(X, g, g, t, {}, g);
      }
    });
    std::printf("data-parallel (per-kernel OpenMP):  %.3f s\n", secs);
    char row[128];
    std::snprintf(row, sizeof(row),
                  "\"scheme\":\"data_parallel\",\"n\":%d,\"d\":%d,\"k\":%d,"
                  "\"kernels\":%zu,\"seconds\":%.6f",
                  N, d, k, groups.size(), secs);
    emit_json_row("ablation_parallel", row);
  }

  // Task-parallel: LPT-scheduled batch.
  {
    NeighborTable t(N, k);
    std::vector<KnnTask> tasks;
    for (const auto& g : groups) tasks.push_back({g, g, &t, g});
    const double secs = time_best(2, [&] {
      t.reset();
      knn_batch(X, tasks, k, {});
    });
    std::printf("task-parallel (LPT batch):          %.3f s\n", secs);
    char row[128];
    std::snprintf(row, sizeof(row),
                  "\"scheme\":\"task_parallel\",\"n\":%d,\"d\":%d,\"k\":%d,"
                  "\"kernels\":%zu,\"seconds\":%.6f",
                  N, d, k, groups.size(), secs);
    emit_json_row("ablation_parallel", row);
  }

  // Scheduler quality: model-estimated makespan, LPT vs round-robin.
  {
    const model::MachineParams& mp = model::machine();
    const BlockingParams bp = default_blocking(cpu_features().best_level());
    std::vector<double> est;
    for (const auto& g : groups) {
      est.push_back(model::predicted_time(
          model::Method::kVar1,
          {static_cast<int>(g.size()), static_cast<int>(g.size()), d, k}, mp,
          bp));
    }
    for (int p : {2, 4, 8}) {
      const auto lpt = model::schedule_lpt(est, p);
      std::vector<int> rr(est.size());
      for (std::size_t i = 0; i < rr.size(); ++i) rr[i] = static_cast<int>(i) % p;
      std::printf("estimated makespan p=%d: LPT %.4f s vs round-robin %.4f s"
                  " (%.0f%% better)\n",
                  p, model::makespan(est, lpt, p), model::makespan(est, rr, p),
                  (model::makespan(est, rr, p) / model::makespan(est, lpt, p) -
                   1.0) * 100.0);
      char row[160];
      std::snprintf(row, sizeof(row),
                    "\"scheme\":\"makespan_model\",\"p\":%d,"
                    "\"lpt_s\":%.6f,\"round_robin_s\":%.6f",
                    p, model::makespan(est, lpt, p),
                    model::makespan(est, rr, p));
      emit_json_row("ablation_parallel", row);
    }
  }
  return 0;
}
