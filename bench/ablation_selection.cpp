// Empirical companion to Table 3: runtime of the four selection algorithms
// (binary max-heap, quickselect, chunked merge, STL heap)
// under the two regimes the paper analyzes:
//   * cold  — empty neighbor list, one batch of n candidates;
//   * warm  — list already converged, 15 further batches mostly rejected
//             (the regime GSKNN's fused selection lives in, where heap
//             selection's O(n) best case dominates the asymptotics).
#include <cstdio>

#include "bench_util.hpp"
#include "gsknn/common/rng.hpp"
#include "gsknn/select/heap.hpp"
#include "gsknn/select/select.hpp"

using namespace gsknn;
using namespace gsknn::bench;

namespace {

struct Stream {
  std::vector<double> dist;
  std::vector<int> id;
};

Stream make_stream(int n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Stream s;
  s.dist.resize(static_cast<std::size_t>(n));
  s.id.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    s.dist[static_cast<std::size_t>(j)] = rng.uniform();
    s.id[static_cast<std::size_t>(j)] = j;
  }
  return s;
}

/// ns per candidate for `algo` over `batches` batches against one row.
template <typename Algo>
double ns_per_candidate(int n, int k, int batches, Algo&& algo) {
  std::vector<double> rd(static_cast<std::size_t>(k));
  std::vector<int> ri(rd.size());
  const int reps = 5;
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    heap::binary_init(rd.data(), ri.data(), k);
    WallTimer t;
    for (int b = 0; b < batches; ++b) {
      const Stream s = make_stream(n, static_cast<std::uint64_t>(b) + 17);
      algo(s.dist.data(), s.id.data(), n, rd.data(), ri.data(), k);
    }
    best = std::min(best, t.seconds());
  }
  return best / (static_cast<double>(n) * batches) * 1e9;
}

}  // namespace

int main() {
  print_header("Table 3 companion — selection algorithms, ns per candidate");
  SelectScratch scratch;
  for (const char* regime : {"cold", "warm"}) {
    const int batches = (regime[0] == 'c') ? 1 : 15;
    std::printf("\nregime: %s (%d batch%s)\n", regime, batches,
                batches == 1 ? "" : "es");
    std::printf("%6s %6s | %10s %10s %10s %10s\n", "n", "k", "heap2",
                "quick", "merge", "stl");
    for (int n : {2048, 8192}) {
      for (int k : {16, 128, 512, 2048}) {
        const double h2 = ns_per_candidate(n, k, batches, select_heap_binary);
        const double qk = ns_per_candidate(
            n, k, batches,
            [&](const double* cd, const int* ci, int nn, double* rd, int* ri,
                int kk) { select_quick(cd, ci, nn, rd, ri, kk, scratch); });
        const double mg = ns_per_candidate(
            n, k, batches,
            [&](const double* cd, const int* ci, int nn, double* rd, int* ri,
                int kk) { select_merge(cd, ci, nn, rd, ri, kk, scratch); });
        const double st = ns_per_candidate(
            n, k, batches,
            [&](const double* cd, const int* ci, int nn, double* rd, int* ri,
                int kk) { select_stl(cd, ci, nn, rd, ri, kk, scratch); });
        std::printf("%6d %6d | %10.2f %10.2f %10.2f %10.2f\n", n, k, h2, qk,
                    mg, st);
        char row[224];
        std::snprintf(row, sizeof(row),
                      "\"regime\":\"%s\",\"n\":%d,\"k\":%d,"
                      "\"heap2_ns\":%.3f,\"quick_ns\":%.3f,"
                      "\"merge_ns\":%.3f,\"stl_ns\":%.3f",
                      regime, n, k, h2, qk, mg, st);
        emit_json_row("ablation_selection", row);
      }
    }
  }
  std::printf("\n# note: stream generation time is included identically for "
              "all algorithms;\n# relative ordering is the signal.\n");
  return 0;
}
