// Micro-benchmark: binary heap insertion throughput in the two regimes that
// matter to the kernel — mostly-rejected (steady state) and mostly-accepted
// (cold start).
#include <benchmark/benchmark.h>

#include <vector>

#include "gsknn/common/rng.hpp"
#include "gsknn/select/heap.hpp"

namespace {

using namespace gsknn;

void BM_BinaryRejectHeavy(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::vector<double> d(static_cast<std::size_t>(k));
  std::vector<int> id(static_cast<std::size_t>(k));
  heap::binary_init(d.data(), id.data(), k);
  // Converge the heap on [0, 0.01) so subsequent uniforms mostly reject.
  Xoshiro256 warm(1);
  for (int i = 0; i < 10 * k; ++i) {
    heap::binary_try_insert(d.data(), id.data(), k, warm.uniform() * 0.01, i);
  }
  Xoshiro256 rng(2);
  for (auto _ : state) {
    heap::binary_try_insert(d.data(), id.data(), k, rng.uniform(), 7);
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(BM_BinaryRejectHeavy)->Arg(16)->Arg(512)->Arg(2048);

void BM_BinaryAcceptHeavy(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::vector<double> d(static_cast<std::size_t>(k));
  std::vector<int> id(static_cast<std::size_t>(k));
  heap::binary_init(d.data(), id.data(), k);
  for (auto _ : state) {
    // Shrinking stream: every insert accepted, full sift each time.
    heap::binary_replace_root(d.data(), id.data(), k, d[0] * 0.999999, 7);
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(BM_BinaryAcceptHeavy)->Arg(16)->Arg(512)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
