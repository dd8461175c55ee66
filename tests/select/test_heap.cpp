#include "gsknn/select/heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <utility>
#include <vector>

#include "gsknn/common/rng.hpp"

namespace gsknn::heap {
namespace {

std::vector<double> random_values(int n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = rng.uniform();
  return v;
}

TEST(BinaryHeap, InitFillsSentinels) {
  std::vector<double> d(8);
  std::vector<int> id(8);
  binary_init(d.data(), id.data(), 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(std::isinf(d[static_cast<std::size_t>(i)]));
    EXPECT_EQ(id[static_cast<std::size_t>(i)], kNoId);
  }
  EXPECT_TRUE(binary_is_heap(d.data(), 8));
}

TEST(BinaryHeap, BuildEstablishesHeapProperty) {
  auto vals = random_values(31, 1);
  std::vector<int> ids(31);
  for (int i = 0; i < 31; ++i) ids[static_cast<std::size_t>(i)] = i;
  binary_build(vals.data(), ids.data(), 31);
  EXPECT_TRUE(binary_is_heap(vals.data(), 31));
}

TEST(BinaryHeap, ReplaceRootKeepsHeap) {
  auto vals = random_values(15, 2);
  std::vector<int> ids(15, 0);
  binary_build(vals.data(), ids.data(), 15);
  for (int step = 0; step < 100; ++step) {
    binary_replace_root(vals.data(), ids.data(), 15, vals[0] * 0.9, step);
    ASSERT_TRUE(binary_is_heap(vals.data(), 15));
  }
}

TEST(BinaryHeap, TryInsertRejectsLarger) {
  std::vector<double> d = {5.0, 3.0, 4.0};
  std::vector<int> id = {0, 1, 2};
  binary_try_insert(d.data(), id.data(), 3, 6.0, 99);
  EXPECT_EQ(d[0], 5.0);  // unchanged
  binary_try_insert(d.data(), id.data(), 3, 1.0, 99);
  EXPECT_LT(d[0], 5.0);  // root replaced and sifted
  EXPECT_TRUE(binary_is_heap(d.data(), 3));
}

TEST(BinaryHeap, StreamingSelectionMatchesSort) {
  for (int k : {1, 2, 3, 8, 16, 33}) {
    auto stream = random_values(500, static_cast<std::uint64_t>(k));
    std::vector<double> d(static_cast<std::size_t>(k));
    std::vector<int> id(static_cast<std::size_t>(k));
    binary_init(d.data(), id.data(), k);
    for (std::size_t j = 0; j < stream.size(); ++j) {
      binary_try_insert(d.data(), id.data(), k, stream[j],
                        static_cast<int>(j));
    }
    auto expect = stream;
    std::sort(expect.begin(), expect.end());
    std::sort(d.begin(), d.end());
    for (int j = 0; j < k; ++j) {
      EXPECT_DOUBLE_EQ(d[static_cast<std::size_t>(j)],
                       expect[static_cast<std::size_t>(j)])
          << "k=" << k << " j=" << j;
    }
  }
}

TEST(BinaryHeap, SingleElementHeap) {
  std::vector<double> d = {kInfDist};
  std::vector<int> id = {kNoId};
  binary_try_insert(d.data(), id.data(), 1, 2.0, 5);
  EXPECT_EQ(d[0], 2.0);
  EXPECT_EQ(id[0], 5);
  binary_try_insert(d.data(), id.data(), 1, 3.0, 6);
  EXPECT_EQ(d[0], 2.0);  // larger rejected
  binary_try_insert(d.data(), id.data(), 1, 1.0, 7);
  EXPECT_EQ(d[0], 1.0);
  EXPECT_EQ(id[0], 7);
}

// binary_build picks the larger child with a select; the reference here is
// the textbook Floyd loop, one binary_sift_down per internal node. Both use
// the strict (distance, id) order, so the heaps must be bitwise equal — on
// rows with repeated (distance, id) pairs and (+inf, −1) sentinel runs too,
// where a tie broken the other way would move a different entry.
TEST(BinaryHeap, BuildBitwiseEqualsSiftPerNodeFloyd) {
  Xoshiro256 rng(0xB17D);
  for (int k = 1; k <= 300; ++k) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<double> d(static_cast<std::size_t>(k));
      std::vector<int> id(d.size());
      for (int j = 0; j < k;) {
        if (rng.below(8) == 0) {  // a sentinel run
          const int run = 1 + static_cast<int>(rng.below(6));
          for (int t = 0; t < run && j < k; ++t, ++j) {
            d[static_cast<std::size_t>(j)] = kInfDist;
            id[static_cast<std::size_t>(j)] = kNoId;
          }
        } else {  // few distinct distances and ids: many repeated pairs
          d[static_cast<std::size_t>(j)] =
              0.25 * static_cast<double>(rng.below(rep < 4 ? 4 : 64));
          id[static_cast<std::size_t>(j)] = static_cast<int>(rng.below(5));
          ++j;
        }
      }
      std::vector<double> ref_d = d;
      std::vector<int> ref_id = id;
      for (int i = k / 2 - 1; i >= 0; --i) {
        binary_sift_down(ref_d.data(), ref_id.data(), k, i);
      }
      binary_build(d.data(), id.data(), k);
      ASSERT_EQ(0, std::memcmp(d.data(), ref_d.data(),
                               d.size() * sizeof(double)))
          << "k=" << k << " rep=" << rep;
      ASSERT_EQ(id, ref_id) << "k=" << k << " rep=" << rep;
    }
  }
}

// Every parent is at least each child in the full (distance, id) order —
// stricter than binary_is_heap, which compares distances only.
bool is_pair_heap(const std::vector<double>& d, const std::vector<int>& id) {
  for (std::size_t i = 1; i < d.size(); ++i) {
    const std::size_t p = (i - 1) / 2;
    if (pair_less(d[p], id[p], d[i], id[i])) return false;
  }
  return true;
}

TEST(BinaryHeap, IdsTravelWithDistances) {
  const int k = 8;
  std::vector<double> d(static_cast<std::size_t>(k));
  std::vector<int> id(d.size());
  binary_init(d.data(), id.data(), k);
  // Insert values 100−i with id i; smallest k survive with matching ids.
  for (int i = 0; i < 50; ++i) {
    binary_try_insert(d.data(), id.data(), k, 100.0 - i, i);
  }
  for (int j = 0; j < k; ++j) {
    const auto s = static_cast<std::size_t>(j);
    EXPECT_GE(id[s], 50 - k);
    EXPECT_DOUBLE_EQ(d[s], 100.0 - id[s]);
  }
}

// Floyd's build over a row that already is a heap moves nothing: no sift
// starts, because every parent already beats its larger child.
TEST(BinaryHeap, BuildLeavesAHeapUnchanged) {
  for (int k : {1, 2, 3, 7, 16, 33, 255}) {
    auto stream = random_values(4 * k, static_cast<std::uint64_t>(k) + 5);
    std::vector<double> d(static_cast<std::size_t>(k));
    std::vector<int> id(d.size());
    binary_init(d.data(), id.data(), k);
    for (std::size_t j = 0; j < stream.size(); ++j) {
      binary_try_insert(d.data(), id.data(), k, stream[j], static_cast<int>(j));
    }
    const std::vector<double> before_d = d;
    const std::vector<int> before_id = id;
    binary_build(d.data(), id.data(), k);
    EXPECT_EQ(0, std::memcmp(d.data(), before_d.data(),
                             d.size() * sizeof(double)))
        << "k=" << k;
    EXPECT_EQ(id, before_id) << "k=" << k;
  }
}

// Equal distances are ordered by id, so the build must bring the largest id
// to the root and keep the (distance, id) order below it.
TEST(BinaryHeap, BuildBreaksDistanceTiesById) {
  Xoshiro256 rng(41);
  for (int k : {2, 3, 4, 9, 64, 129}) {
    std::vector<int> id(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) id[static_cast<std::size_t>(j)] = 3 * j;
    for (int j = k - 1; j > 0; --j) {  // Fisher-Yates
      std::swap(id[static_cast<std::size_t>(j)],
                id[static_cast<std::size_t>(rng.below(
                    static_cast<std::uint64_t>(j) + 1))]);
    }
    std::vector<double> d(static_cast<std::size_t>(k), 0.5);
    binary_build(d.data(), id.data(), k);
    EXPECT_EQ(id[0], 3 * (k - 1)) << "k=" << k;
    EXPECT_TRUE(is_pair_heap(d, id)) << "k=" << k;
  }
}

// A row partly filled with (+inf, −1) sentinels keeps one at the root after
// the build, so the next finite candidate is accepted and lands in the row.
TEST(BinaryHeap, BuildKeepsSentinelAtRoot) {
  const int k = 12;
  std::vector<double> d(static_cast<std::size_t>(k));
  std::vector<int> id(d.size());
  for (int j = 0; j < k; ++j) {
    const auto s = static_cast<std::size_t>(j);
    const bool sentinel = j % 3 == 1;
    d[s] = sentinel ? kInfDist : 0.1 * j;
    id[s] = sentinel ? kNoId : j;
  }
  binary_build(d.data(), id.data(), k);
  EXPECT_TRUE(std::isinf(d[0]));
  EXPECT_EQ(id[0], kNoId);
  EXPECT_TRUE(is_pair_heap(d, id));
  binary_try_insert(d.data(), id.data(), k, 5.0, 99);
  EXPECT_TRUE(is_pair_heap(d, id));
  EXPECT_NE(std::find(id.begin(), id.end(), 99), id.end());
  EXPECT_EQ(std::count(id.begin(), id.end(), kNoId), 3);
}

// Var#5's pattern: a row rebuilt from arbitrary entries, then fed more
// candidates, holds the k smallest (distance, id) pairs of everything seen.
TEST(BinaryHeap, BuildThenInsertMatchesSort) {
  for (int k : {1, 4, 17, 100}) {
    auto first = random_values(k, static_cast<std::uint64_t>(k) + 900);
    auto rest = random_values(3 * k + 10, static_cast<std::uint64_t>(k) + 901);
    std::vector<double> d = first;
    std::vector<int> id(d.size());
    std::vector<std::pair<double, int>> expect;
    for (int j = 0; j < k; ++j) {
      id[static_cast<std::size_t>(j)] = j;
      expect.emplace_back(first[static_cast<std::size_t>(j)], j);
    }
    binary_build(d.data(), id.data(), k);
    ASSERT_TRUE(is_pair_heap(d, id)) << "k=" << k;
    for (std::size_t j = 0; j < rest.size(); ++j) {
      const int x = k + static_cast<int>(j);
      binary_try_insert(d.data(), id.data(), k, rest[j], x);
      expect.emplace_back(rest[j], x);
    }
    std::sort(expect.begin(), expect.end());
    expect.resize(static_cast<std::size_t>(k));
    std::vector<std::pair<double, int>> got;
    for (int j = 0; j < k; ++j) {
      got.emplace_back(d[static_cast<std::size_t>(j)],
                       id[static_cast<std::size_t>(j)]);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect) << "k=" << k;
  }
}

// Streaming selection against std::sort of the (distance, id) pairs: the row
// holds exactly the min(n, k) smallest, the rest stay sentinels.
class HeapSortSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HeapSortSweep, BinaryMatchesSort) {
  const auto [n, k] = GetParam();
  auto stream = random_values(n, static_cast<std::uint64_t>(n * 31 + k));
  std::vector<double> bd(static_cast<std::size_t>(k));
  std::vector<int> bi(static_cast<std::size_t>(k));
  binary_init(bd.data(), bi.data(), k);
  std::vector<std::pair<double, int>> expect;
  for (std::size_t j = 0; j < stream.size(); ++j) {
    binary_try_insert(bd.data(), bi.data(), k, stream[j], static_cast<int>(j));
    expect.emplace_back(stream[j], static_cast<int>(j));
  }
  std::sort(expect.begin(), expect.end());
  expect.resize(static_cast<std::size_t>(std::min(n, k)));
  std::vector<std::pair<double, int>> got;
  for (int j = 0; j < k; ++j) {
    const auto s = static_cast<std::size_t>(j);
    if (bi[s] != kNoId) got.emplace_back(bd[s], bi[s]);
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
  EXPECT_TRUE(binary_is_heap(bd.data(), k));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HeapSortSweep,
    ::testing::Combine(::testing::Values(1, 2, 10, 100, 1000),
                       ::testing::Values(1, 2, 5, 16, 64)));

}  // namespace
}  // namespace gsknn::heap
