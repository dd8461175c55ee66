// Batched row selection (the Var#5 row_select at k >= kBatchSelectMinK)
// against the per-candidate heap scan it replaces: the sorted rows must be
// bitwise identical and the row must still be a valid heap afterwards, in
// both precisions and both heap arities, on the inputs where a batch could
// plausibly diverge from a scan — ties at the k-th distance, non-finite
// candidates, warm rows, short rows, k > n and a sampled bound that
// undershoots.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "../../src/core/micro.hpp"

namespace gsknn {
namespace {

using core::kBatchSelectMinK;
using core::row_select;
using core::SelPair;

template <typename T>
struct Rows {
  std::vector<T> cand;
  std::vector<int> ids;
};

/// Candidate row of `len` distances drawn from [0, range) (small ranges
/// make exact ties), ids a shuffled permutation offset by `id0`.
template <typename T>
Rows<T> make_row(int len, int range, unsigned seed, int id0 = 0) {
  std::mt19937 g(seed);
  Rows<T> r;
  r.cand.resize(static_cast<std::size_t>(len));
  r.ids.resize(static_cast<std::size_t>(len));
  std::uniform_int_distribution<int> u(0, range - 1);
  for (auto& d : r.cand) d = static_cast<T>(u(g)) / T(8);
  std::iota(r.ids.begin(), r.ids.end(), id0);
  std::shuffle(r.ids.begin(), r.ids.end(), g);
  return r;
}

/// Runs every candidate row through two tables — the per-candidate scan
/// (no scratch) and the batched merge — and checks they agree after each.
template <typename T>
void expect_batch_matches_scan(int k, HeapArity arity,
                               const std::vector<Rows<T>>& calls) {
  NeighborTableT<T> scan(1, k, arity);
  NeighborTableT<T> batch(1, k, arity);
  std::size_t widest = 0;
  for (const auto& c : calls) widest = std::max(widest, c.cand.size());
  std::vector<SelPair<T>> scratch(widest + static_cast<std::size_t>(k));
  for (std::size_t call = 0; call < calls.size(); ++call) {
    const Rows<T>& c = calls[call];
    const int len = static_cast<int>(c.cand.size());
    row_select(c.cand.data(), c.ids.data(), len, scan.row_dists(0),
               scan.row_ids(0), nullptr, k, scan.row_stride(), arity, false);
    row_select(c.cand.data(), c.ids.data(), len, batch.row_dists(0),
               batch.row_ids(0), nullptr, k, batch.row_stride(), arity, false,
               scratch.data());
    const auto want = scan.sorted_row(0);
    const auto got = batch.sorted_row(0);
    ASSERT_EQ(got.size(), want.size()) << "call " << call;
    for (std::size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(got[j], want[j]) << "call " << call << " slot " << j;
    }
    const bool heap_ok =
        arity == HeapArity::kQuad
            ? heap::quad_is_heap(batch.row_dists(0), k)
            : heap::binary_is_heap(batch.row_dists(0), k);
    EXPECT_TRUE(heap_ok) << "call " << call;
    // Sentinels fill exactly the slots no finite candidate reached.
    int sentinels = 0;
    for (int j = 0; j < k; ++j) {
      const int p = arity == HeapArity::kQuad ? heap::quad_phys(j) : j;
      if (batch.row_ids(0)[p] == heap::kNoId) ++sentinels;
    }
    EXPECT_EQ(sentinels, k - static_cast<int>(got.size())) << "call " << call;
  }
}

template <typename T>
class RowSelectBatch : public ::testing::Test {};

using Scalars = ::testing::Types<double, float>;
TYPED_TEST_SUITE(RowSelectBatch, Scalars);

constexpr HeapArity kArities[] = {HeapArity::kBinary, HeapArity::kQuad};

// Few distinct distances: the k-th entry sits inside a large tie group, so
// which ties survive is decided by id alone. 600 candidates take the plain
// batch; 4096 take the sampled bound, whose `<=` keeps the whole group.
TYPED_TEST(RowSelectBatch, TiesAtTheKthDistance) {
  using T = TypeParam;
  for (HeapArity a : kArities) {
    for (int len : {600, 4096}) {
      expect_batch_matches_scan<T>(kBatchSelectMinK, a,
                                   {make_row<T>(len, 12, 0x71E5)});
      expect_batch_matches_scan<T>(kBatchSelectMinK + 5, a,
                                   {make_row<T>(len, 3, 0x71E6)});
    }
  }
}

// NaN and ±inf candidates never enter a row, and never disturb the sampled
// bound (non-finite samples read as +inf).
TYPED_TEST(RowSelectBatch, NonFiniteCandidates) {
  using T = TypeParam;
  const T kInf = std::numeric_limits<T>::infinity();
  for (HeapArity a : kArities) {
    for (int len : {700, 4096}) {
      Rows<T> r =
          make_row<T>(len, 1 << 20, 0x0F1 + static_cast<unsigned>(len));
      for (int j = 0; j < len; j += 3) {
        r.cand[static_cast<std::size_t>(j)] =
            (j % 9 == 0)   ? std::numeric_limits<T>::quiet_NaN()
            : (j % 9 == 3) ? kInf
                           : -kInf;
      }
      expect_batch_matches_scan<T>(kBatchSelectMinK, a, {r});
    }
  }
}

// A second call into a filled row: the candidates mostly lose to the warm
// root, so only a handful survive to merge with the row's k entries. A
// third call with a new, better batch displaces most of the row.
TYPED_TEST(RowSelectBatch, WarmRootFewSurvivors) {
  using T = TypeParam;
  const int k = 512;
  for (HeapArity a : kArities) {
    Rows<T> cold = make_row<T>(4096, 1 << 16, 0x3A1);
    Rows<T> warm = make_row<T>(2048, 1 << 16, 0x3A2, 4096);
    for (auto& d : warm.cand) d += T(4096);  // all far beyond the root…
    for (int j = 0; j < 20; ++j) {            // …but for a handful
      warm.cand[static_cast<std::size_t>(j * 97)] = static_cast<T>(j);
    }
    Rows<T> better = make_row<T>(1024, 1 << 12, 0x3A3, 8192);
    for (auto& d : better.cand) d /= T(64);
    expect_batch_matches_scan<T>(k, a, {cold, warm, better});
  }
}

// Warm survivors that only just beat the root: in the scan each insert
// lowers the root below the next (worse) survivor, which is then turned
// away; the merge must keep exactly the same entries.
TYPED_TEST(RowSelectBatch, WarmSurvivorsRecheckedAgainstLiveRoot) {
  using T = TypeParam;
  const int k = 512;
  for (HeapArity a : kArities) {
    Rows<T> fill;  // distances 0 .. k-1: the root is k - 1, then k - 2
    for (int j = 0; j < k; ++j) {
      fill.cand.push_back(static_cast<T>(j));
      fill.ids.push_back(j);
    }
    Rows<T> near;  // ascending in (k - 2, k - 1): each worse than the last
    for (int j = 0; j < 9; ++j) {
      near.cand.push_back(static_cast<T>(k - 2) + static_cast<T>(j + 1) / 10);
      near.ids.push_back(k + j);
    }
    expect_batch_matches_scan<T>(k, a, {fill, near});
  }
}

// A warm row whose entries tie the sampled bound: new candidates at that
// distance with lower ids must still displace them, so the filter keeps
// candidates equal to the bound, not only those below it.
TYPED_TEST(RowSelectBatch, TiesAtTheSampledBound) {
  using T = TypeParam;
  const int k = 256, len = 4096;
  for (HeapArity a : kArities) {
    Rows<T> high;  // k entries at distance 1 with ids above every new one
    for (int j = 0; j < k; ++j) {
      high.cand.push_back(T(1));
      high.ids.push_back(len + j);
    }
    Rows<T> r = make_row<T>(len, 1, 0x7B);  // all distance 0 for now
    for (int j = 100; j < len; ++j) r.cand[static_cast<std::size_t>(j)] = T(1);
    expect_batch_matches_scan<T>(k, a, {high, r});
  }
}

// Rows shorter than k (len < k, the k > n case): every finite candidate is
// kept and the remaining slots stay (+inf, -1) sentinels.
TYPED_TEST(RowSelectBatch, ShortRowsKeepSentinels) {
  using T = TypeParam;
  for (HeapArity a : kArities) {
    expect_batch_matches_scan<T>(300, a, {make_row<T>(37, 1 << 10, 0x5E1)});
    expect_batch_matches_scan<T>(kBatchSelectMinK, a,
                                 {make_row<T>(100, 1 << 10, 0x5E2),
                                  make_row<T>(90, 1 << 10, 0x5E3, 100)});
    expect_batch_matches_scan<T>(kBatchSelectMinK, a, {Rows<T>{}});  // len 0
  }
}

// The sampled bound reads every 16th candidate of a 4096-long row. Making
// exactly those the small ones drives the bound below the true k-th
// distance; the row must notice and filter again on the root alone.
TYPED_TEST(RowSelectBatch, UndershotSampleFallsBack) {
  using T = TypeParam;
  const int len = 4096, k = 512;
  for (HeapArity a : kArities) {
    Rows<T> r = make_row<T>(len, 1 << 16, 0xB0D);
    for (int j = 0; j < len; ++j) {
      r.cand[static_cast<std::size_t>(j)] =
          (j % 16 == 0) ? static_cast<T>(j) / T(4096)
                        : T(2) + r.cand[static_cast<std::size_t>(j)];
    }
    expect_batch_matches_scan<T>(k, a, {r});
  }
}

}  // namespace
}  // namespace gsknn
