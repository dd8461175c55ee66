// Ablation of the selection placement (§2.3): the three placements the
// library offers timed over the (d, k) grid. Var#5 pays per-panel heap
// reloads; Var#1 and Var#6 bracket the useful frontier. (Var#2/Var#3, which
// the paper eliminates, are not implemented; EXPERIMENTS.md §2.3 keeps
// their last measurement.)
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
  std::printf("%6s %6s | %9s %9s %9s | %8s\n", "d", "k", "Var#1", "Var#5",
              "Var#6", "best");

  const Variant variants[] = {Variant::kVar1, Variant::kVar5, Variant::kVar6};
  for (int d : {16, 256}) {
    const PointTable X = make_uniform(d, m + n, 0xAB1A + d);
    for (int k : {16, 512, 2048}) {
      double secs[3];
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
      int best = 0;
      for (int i = 1; i < 3; ++i) {
        if (secs[i] < secs[best]) best = i;
      }
      const char* names[] = {"Var#1", "Var#5", "Var#6"};
      std::printf("%6d %6d | %9.3f %9.3f %9.3f | %8s\n", d, k, secs[0],
                  secs[1], secs[2], names[best]);
      char row[192];
      std::snprintf(row, sizeof(row),
                    "\"m\":%d,\"d\":%d,\"k\":%d,\"var1_s\":%.6f,"
                    "\"var5_s\":%.6f,\"var6_s\":%.6f,\"best\":\"%s\"",
                    m, d, k, secs[0], secs[1], secs[2], names[best]);
      emit_json_row("ablation_variants", row);
    }
  }
  return 0;
}
