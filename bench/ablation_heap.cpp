// Heap-arity ablation (§2.4): binary vs padded 4-ary rows inside the actual
// finished-row (Var#5) kernel across k. The paper reports the 4-heap 30–50%
// faster for the k = 2048 selection phase; the crossover with the
// lower-instruction-count binary heap sits somewhere below that.
#include <cstdio>

#include "bench_util.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/data/generators.hpp"

using namespace gsknn;
using namespace gsknn::bench;

int main() {
  print_header("Heap-arity ablation (§2.4) — Var#5 kernel seconds, binary vs 4-ary rows");
  const int m = scaled(4096, 1024);
  const int n = m;
  const int d = 16;  // low d so selection, not the rank update, dominates
  const PointTable X = make_uniform(d, m + n, 0x4EA9);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  std::printf("# m = n = %d, d = %d (selection-dominated regime)\n", m, d);
  std::printf("%6s %12s %12s %9s\n", "k", "binary (s)", "4-ary (s)",
              "4-ary win");

  for (int k : {16, 64, 256, 1024, 2048}) {
    KnnConfig cfg;
    cfg.variant = Variant::kVar5;
    double secs[2];
    int ai = 0;
    for (HeapArity arity : {HeapArity::kBinary, HeapArity::kQuad}) {
      NeighborTable t(m, k, arity);
      secs[ai++] = time_best(3, [&] {
        t.reset();
        knn_kernel(X, q, r, t, cfg);
      });
    }
    std::printf("%6d %12.4f %12.4f %8.2f%%\n", k, secs[0], secs[1],
                (secs[0] / secs[1] - 1.0) * 100.0);
    char row[160];
    std::snprintf(row, sizeof(row),
                  "\"m\":%d,\"d\":%d,\"k\":%d,\"binary_s\":%.6f,"
                  "\"quad_s\":%.6f,\"quad_win_pct\":%.2f",
                  m, d, k, secs[0], secs[1],
                  (secs[0] / secs[1] - 1.0) * 100.0);
    emit_json_row("ablation_heap", row);
  }
  return 0;
}
