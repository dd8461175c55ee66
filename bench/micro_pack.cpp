// Micro-benchmark: general-stride packing bandwidth (the gather-from-X phase
// whose fusion into the kernel is a core GSKNN saving, eq. 5).
#include <benchmark/benchmark.h>

#include <numeric>
#include <utility>
#include <vector>

#include "gsknn/common/aligned.hpp"
#include "gsknn/common/rng.hpp"
#include "gsknn/data/generators.hpp"
#include "../src/core/pack.hpp"

namespace {

using namespace gsknn;

void BM_PackQueriesContiguous(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const int count = 512;
  const PointTable X = make_uniform(d, 4096, 1);
  std::vector<int> idx(4096);
  std::iota(idx.begin(), idx.end(), 0);
  AlignedBuffer<double> dst(static_cast<std::size_t>(count + 8) * d);
  for (auto _ : state) {
    core::pack_points<8>(X, idx.data(), 0, count, 0, d, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<long>(state.iterations()) * count * d *
                          static_cast<long>(sizeof(double)));
}
BENCHMARK(BM_PackQueriesContiguous)->Arg(16)->Arg(64)->Arg(256);

void BM_PackQueriesScattered(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const int count = 512;
  const PointTable X = make_uniform(d, 65536, 2);
  std::vector<int> idx(static_cast<std::size_t>(count));
  Xoshiro256 rng(7);
  for (auto& i : idx) i = static_cast<int>(rng.below(65536));
  AlignedBuffer<double> dst(static_cast<std::size_t>(count + 8) * d);
  for (auto _ : state) {
    core::pack_points<8>(X, idx.data(), 0, count, 0, d, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<long>(state.iterations()) * count * d *
                          static_cast<long>(sizeof(double)));
}
BENCHMARK(BM_PackQueriesScattered)->Arg(16)->Arg(64)->Arg(256);

// The same gathers through the runtime dispatcher, which selects the SIMD
// transpose pack (src/core/pack_simd.hpp, instantiated per level in
// micro_avx*.cpp) when the machine has it for the width, and the scalar
// template otherwise — the scalar templates above are the packing baseline.
// From a 65536-point table (random rows, some repeated) every gather reads
// DRAM and the figures move ±10–20% run to run. From a 512-point table
// (kTable = 512: every row once, in random order) the table stays in L2
// after the first pass, so the loop itself is timed.
template <typename T, int S, int kTable>
void pack_scattered_rt(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const int count = 512;
  const PointTableT<T> X = [&] {
    if constexpr (sizeof(T) == 8) return make_uniform(d, kTable, 2);
    else return to_float(make_uniform(d, kTable, 2));
  }();
  std::vector<int> idx(static_cast<std::size_t>(count));
  Xoshiro256 rng(7);
  if constexpr (kTable == 512) {
    std::iota(idx.begin(), idx.end(), 0);
    for (int i = count - 1; i > 0; --i) {
      std::swap(idx[static_cast<std::size_t>(i)],
                idx[static_cast<std::size_t>(rng.below(i + 1))]);
    }
  } else {
    for (auto& i : idx) i = static_cast<int>(rng.below(kTable));
  }
  AlignedBuffer<T> dst(static_cast<std::size_t>(count + S) * d);
  const SimdLevel level = cpu_features().best_level();
  for (auto _ : state) {
    core::pack_points_rt(S, level, X, idx.data(), 0, count, 0, d, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<long>(state.iterations()) * count * d *
                          static_cast<long>(sizeof(T)));
}

template <int S, int kTable = 65536>
void BM_PackScatteredRt(benchmark::State& state) {
  pack_scattered_rt<double, S, kTable>(state);
}
template <int S, int kTable = 65536>
void BM_PackScatteredRtF32(benchmark::State& state) {
  pack_scattered_rt<float, S, kTable>(state);
}
BENCHMARK(BM_PackScatteredRt<4>)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_PackScatteredRt<8>)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_PackScatteredRt<16>)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_PackScatteredRtF32<4>)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_PackScatteredRtF32<8>)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_PackScatteredRtF32<16>)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK_TEMPLATE(BM_PackScatteredRt, 4, 512)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK_TEMPLATE(BM_PackScatteredRt, 8, 512)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK_TEMPLATE(BM_PackScatteredRt, 16, 512)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK_TEMPLATE(BM_PackScatteredRtF32, 4, 512)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK_TEMPLATE(BM_PackScatteredRtF32, 8, 512)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK_TEMPLATE(BM_PackScatteredRtF32, 16, 512)->Arg(16)->Arg(64)->Arg(256);

void BM_PackNorms(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const PointTable X = make_uniform(16, count, 3);
  std::vector<int> idx(static_cast<std::size_t>(count));
  std::iota(idx.begin(), idx.end(), 0);
  AlignedBuffer<double> dst(static_cast<std::size_t>(count) + 8);
  for (auto _ : state) {
    core::pack_norms(8, X, idx.data(), 0, count, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
}
BENCHMARK(BM_PackNorms)->Arg(512)->Arg(8192);

}  // namespace

BENCHMARK_MAIN();
