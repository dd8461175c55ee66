// Reproduces Figure 5: GFLOPS of Var#1 and finished-row selection as a
// function of k at fixed d, with the model-predicted switch threshold printed
// next to the measured crossover. The paper's Var#6 is timed as Var#5: at
// m = n <= nc it is the same single selection per finished row, in a buffer
// bounded by nc. The paper shows the prediction narrowing the tuning search to a
// small region — the same comparison is printed here.
#include <cstdio>

#include "bench_util.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/data/generators.hpp"
#include "gsknn/model/perf_model.hpp"

using namespace gsknn;
using namespace gsknn::bench;

int main() {
  print_header("Figure 5 — Var#1 vs Var#5 over k, predicted vs measured threshold");
  const int m = scaled(4096, 1024);
  const int n = m;
  const model::MachineParams mp = model::calibrate(1);
  const BlockingParams bp = default_blocking(cpu_features().best_level());

  for (int d : {16, 64}) {
    const PointTable X = make_uniform(d, m + n, 0xF15 + d);
    const auto q = iota_ids(m);
    const auto r = iota_ids(n, m);

    std::printf("\nd = %d, m = n = %d\n", d, m);
    std::printf("%6s %12s %12s %9s\n", "k", "Var#1 GF/s", "Var#5 GF/s",
                "faster");
    int measured_threshold = -1;
    for (int k = 16; k <= 2048; k *= 2) {
      double secs[2];
      int vi = 0;
      for (Variant v : {Variant::kVar1, Variant::kVar5}) {
        KnnConfig cfg;
        cfg.variant = v;
        NeighborTable t(m, k);
        secs[vi++] = time_best(2, [&] {
          t.reset();
          knn_kernel(X, q, r, t, cfg);
        });
      }
      if (measured_threshold < 0 && secs[1] < secs[0]) {
        measured_threshold = k;
      }
      std::printf("%6d %12.1f %12.1f %9s\n", k, knn_gflops(m, n, d, secs[0]),
                  knn_gflops(m, n, d, secs[1]),
                  secs[0] <= secs[1] ? "Var#1" : "Var#5");
      char row[192];
      std::snprintf(row, sizeof(row),
                    "\"m\":%d,\"d\":%d,\"k\":%d,\"var1_gflops\":%.3f,"
                    "\"var5_gflops\":%.3f,\"faster\":\"var%d\"",
                    m, d, k, knn_gflops(m, n, d, secs[0]),
                    knn_gflops(m, n, d, secs[1]),
                    secs[0] <= secs[1] ? 1 : 5);
      emit_json_row("fig5_variant_threshold", row);
    }
    const int predicted =
        model::variant_threshold_k(m, n, d, 4096, mp, bp);
    std::printf("predicted threshold: k ≈ %s;  measured crossover: %s\n",
                predicted > 4096 ? "none ≤ 4096" : std::to_string(predicted).c_str(),
                measured_threshold < 0 ? "none ≤ 2048"
                                       : std::to_string(measured_threshold).c_str());
  }
  return 0;
}
