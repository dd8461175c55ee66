// Reproduces Figure 4: predicted vs measured floating-point efficiency
// (GFLOPS) as a function of d, for the three panel settings of the paper —
// (Var#1, k=16), (Var#1, k=512), (Var#6, k=2048) — plus the GEMM+STL
// reference curve and the model's prediction for it. The Var#6 panel is
// measured on Var#5, the same finished-row selection with its distance
// buffer bounded by nc, and priced by the model's Var#6 method.
//
// Machine parameters (τf, τb, τℓ) are calibrated at startup with the §2.6
// micro-benchmarks instead of being read off a spec sheet.
#include <cstdio>

#include "bench_util.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/data/generators.hpp"
#include "gsknn/model/perf_model.hpp"

using namespace gsknn;
using namespace gsknn::bench;

int main() {
  print_header("Figure 4 — modeled vs measured GFLOPS over d");
  const int m = scaled(4096, 1024);
  const int n = m;
  const model::MachineParams mp = model::calibrate(1);
  std::printf("# m = n = %d; calibrated: peak=%.1f GF/s tau_b=%.2f ns tau_l=%.2f ns eps=%.2f\n",
              m, mp.peak_flops / 1e9, mp.tau_b * 1e9, mp.tau_l * 1e9, mp.eps);

  const BlockingParams bp = default_blocking(cpu_features().best_level());
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  struct Panel {
    Variant variant;
    model::Method method;
    int k;
  };
  const Panel panels[] = {{Variant::kVar1, model::Method::kVar1, 16},
                          {Variant::kVar1, model::Method::kVar1, 512},
                          {Variant::kVar5, model::Method::kVar6, 2048}};

  for (const Panel& p : panels) {
    std::printf("\npanel: Var#%d, k = %d\n", static_cast<int>(p.variant),
                p.k);
    std::printf("%6s %12s %12s %12s %12s\n", "d", "model", "measured",
                "model_ref", "meas_ref");
    for (int d : {4, 8, 16, 32, 64, 128, 256, 512, 1024}) {
      const PointTable Xd = make_uniform(d, m + n, 0xF19 + d);
      const model::ProblemShape shape{m, n, d, p.k};
      const double predicted = model::predicted_gflops(p.method, shape, mp, bp);
      const double predicted_ref =
          model::predicted_gflops(model::Method::kGemmBaseline, shape, mp, bp);

      KnnConfig cfg;
      cfg.variant = p.variant;
      NeighborTable t(m, p.k);
      const double secs = time_best(2, [&] {
        t.reset();
        knn_kernel(Xd, q, r, t, cfg);
      });

      NeighborTable tr(m, p.k);
      const double secs_ref = time_best(2, [&] {
        tr.reset();
        knn_gemm_baseline(Xd, q, r, tr, {});
      });

      std::printf("%6d %12.1f %12.1f %12.1f %12.1f\n", d, predicted,
                  knn_gflops(m, n, d, secs), predicted_ref,
                  knn_gflops(m, n, d, secs_ref));
      char row[256];
      std::snprintf(row, sizeof(row),
                    "\"variant\":%d,\"m\":%d,\"k\":%d,\"d\":%d,"
                    "\"model_gflops\":%.3f,\"measured_gflops\":%.3f,"
                    "\"model_ref_gflops\":%.3f,\"measured_ref_gflops\":%.3f",
                    static_cast<int>(p.variant), m, p.k, d, predicted,
                    knn_gflops(m, n, d, secs), predicted_ref,
                    knn_gflops(m, n, d, secs_ref));
      emit_json_row("fig4_model_vs_measured", row);
    }
  }
  return 0;
}
