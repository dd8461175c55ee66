// Ablation of the selection placement (§2.3): the two placements the
// library offers timed over the (d, k) grid — Var#1 selects inside the
// micro-kernel, Var#5 after each finished m × nc panel. (Var#2/Var#3, which
// the paper eliminates, and Var#6, whose selection Var#5 performs in a
// buffer bounded by nc, are not offered; EXPERIMENTS.md §2.3 keeps their
// last measurement.)
#include <cstdio>

#include "bench_util.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/data/generators.hpp"

using namespace gsknn;
using namespace gsknn::bench;

int main() {
  print_header("Variant ablation (§2.3) — kernel seconds per (d, k)");
  const int m = scaled(4096, 1024);
  const int n = m;
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  std::printf("# m = n = %d\n", m);
  std::printf("%6s %6s | %9s %9s | %8s\n", "d", "k", "Var#1", "Var#5",
              "best");

  const Variant variants[] = {Variant::kVar1, Variant::kVar5};
  for (int d : {16, 256}) {
    const PointTable X = make_uniform(d, m + n, 0xAB1A + d);
    for (int k : {16, 512, 2048}) {
      double secs[2];
      int vi = 0;
      for (Variant v : variants) {
        KnnConfig cfg;
        cfg.variant = v;
        NeighborTable t(m, k);
        secs[vi++] = time_best(2, [&] {
          t.reset();
          knn_kernel(X, q, r, t, cfg);
        });
      }
      const char* best = secs[0] <= secs[1] ? "Var#1" : "Var#5";
      std::printf("%6d %6d | %9.3f %9.3f | %8s\n", d, k, secs[0], secs[1],
                  best);
      char row[192];
      std::snprintf(row, sizeof(row),
                    "\"m\":%d,\"d\":%d,\"k\":%d,\"var1_s\":%.6f,"
                    "\"var5_s\":%.6f,\"best\":\"%s\"",
                    m, d, k, secs[0], secs[1], best);
      emit_json_row("ablation_variants", row);
    }
  }
  return 0;
}
