// Reproduces Figure 6: the 12-panel efficiency overview — GFLOPS of GSKNN
// versus the GEMM+STL reference as a function of d (log axis 4…1024), for
// m = n ∈ {small, medium, large} × k ∈ {16, 128, 512, 2048}. The variant is
// the library's kAuto pick — Var#1 below k = 256, Var#5 (4-ary heap,
// batched row selection) from there; the paper's §3 rule switched to Var#6
// at 512.
//
// Scaled per DESIGN.md §2: the paper's panels are m = n ∈ {2048, 4096, 8192}
// on 10 cores; here the default grid is m = n ∈ {1024, 2048, 4096} on the
// cores available.
#include <cstdio>

#include "bench_util.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/data/generators.hpp"

using namespace gsknn;
using namespace gsknn::bench;

int main() {
  print_header("Figure 6 — GFLOPS over d: GSKNN vs GEMM+STL ref, 12 panels");

  const int sizes_full[] = {1024, 2048, 4096};
  const int sizes_quick[] = {512, 1024, 2048};
  const int* sizes = quick_mode() ? sizes_quick : sizes_full;

  for (int si = 0; si < 3; ++si) {
    const int m = sizes[si];
    const int n = m;
    const auto q = iota_ids(m);
    const auto r = iota_ids(n, m);
    for (int k : {16, 128, 512, 2048}) {
      // The library's kAuto pick. The rule depends on k alone, so one
      // resolution covers the d sweep.
      const Variant variant = resolve_variant(m, n, /*d=*/4, k, KnnConfig{});
      std::printf("\npanel: m = n = %d, k = %d (Var#%d)\n", m, k,
                  static_cast<int>(variant));
      std::printf("%6s %12s %12s %9s\n", "d", "GSKNN GF/s", "ref GF/s",
                  "speedup");
      for (int d : {4, 8, 16, 32, 64, 128, 256, 512, 1024}) {
        const PointTable X = make_uniform(d, m + n, 0xF16 + d + m);

        KnnConfig cfg;
        cfg.variant = variant;
        NeighborTable t(m, k);
        const double gs = time_best(2, [&] {
          t.reset();
          knn_kernel(X, q, r, t, cfg);
        });

        NeighborTable tr(m, k);
        const double ref = time_best(2, [&] {
          tr.reset();
          knn_gemm_baseline(X, q, r, tr, {});
        });

        std::printf("%6d %12.1f %12.1f %8.2fx\n", d, knn_gflops(m, n, d, gs),
                    knn_gflops(m, n, d, ref), ref / gs);
        // PMU columns come from one extra untimed invocation (only when a
        // JSON sink is active), so the timed GFLOPS above stay
        // instrumentation-free.
        telemetry::KernelProfile gsknn_prof;
        if (json_sink() != nullptr) {
          KnnConfig pcfg;
          pcfg.variant = variant;
          pcfg.profile = &gsknn_prof;
          NeighborTable tp(m, k);
          knn_kernel(X, q, r, tp, pcfg);
        }
        char row[224];
        std::snprintf(row, sizeof(row),
                      "\"m\":%d,\"k\":%d,\"d\":%d,\"variant\":%d,"
                      "\"gsknn_gflops\":%.3f,\"ref_gflops\":%.3f,"
                      "\"speedup\":%.3f",
                      m, k, d, static_cast<int>(variant),
                      knn_gflops(m, n, d, gs), knn_gflops(m, n, d, ref),
                      ref / gs);
        emit_json_row("fig6_efficiency_overview",
                      row + ("," + pmu_json_cols(gsknn_prof)));
      }
    }
  }
  return 0;
}
