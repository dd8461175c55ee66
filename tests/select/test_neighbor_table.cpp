#include "gsknn/select/neighbor_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "gsknn/common/rng.hpp"

namespace gsknn {
namespace {

TEST(NeighborTable, FreshTableIsEmptyHeaps) {
  NeighborTable t(4, 3);
  EXPECT_EQ(t.rows(), 4);
  EXPECT_EQ(t.k(), 3);
  EXPECT_TRUE(t.all_rows_are_heaps());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::isinf(t.row_root(i)));
    EXPECT_TRUE(t.sorted_row(i).empty());
  }
}

TEST(NeighborTable, RowStrideIsCacheLinePadded) {
  NeighborTable bin(2, 3);
  EXPECT_EQ(bin.row_stride() % 8, 0);
  EXPECT_GE(bin.row_stride(), 3);
}

TEST(NeighborTable, InsertAndSortedRow) {
  NeighborTable t(2, 3);
  t.try_insert(0, 0.5, 10);
  t.try_insert(0, 0.1, 20);
  t.try_insert(0, 0.9, 30);
  t.try_insert(0, 0.3, 40);  // evicts 0.9
  const auto row = t.sorted_row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], std::make_pair(0.1, 20));
  EXPECT_EQ(row[1], std::make_pair(0.3, 40));
  EXPECT_EQ(row[2], std::make_pair(0.5, 10));
  EXPECT_TRUE(t.sorted_row(1).empty());  // other rows untouched
}

TEST(NeighborTable, SortedRowMatchesStreamSort) {
  NeighborTable t(2, 5);
  Xoshiro256 rng(9);
  std::vector<std::pair<double, int>> expect;
  for (int i = 0; i < 200; ++i) {
    const double d = rng.uniform();
    t.try_insert(0, d, i);
    expect.emplace_back(d, i);
  }
  std::sort(expect.begin(), expect.end());
  expect.resize(5);
  EXPECT_EQ(t.sorted_row(0), expect);
  EXPECT_TRUE(t.sorted_row(1).empty());
  EXPECT_TRUE(t.all_rows_are_heaps());
}

TEST(NeighborTable, UniqueInsertRefusesDuplicateIds) {
  NeighborTable t(1, 4);
  t.try_insert_unique(0, 0.5, 7);
  t.try_insert_unique(0, 0.3, 7);  // same id: refused even though smaller
  const auto row = t.sorted_row(0);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0], std::make_pair(0.5, 7));
}

TEST(NeighborTable, UniqueInsertAcceptsNewIds) {
  NeighborTable t(1, 2);
  t.try_insert_unique(0, 0.5, 1);
  t.try_insert_unique(0, 0.4, 2);
  t.try_insert_unique(0, 0.3, 3);  // evicts 0.5
  const auto row = t.sorted_row(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].second, 3);
  EXPECT_EQ(row[1].second, 2);
}

TEST(NeighborTable, UniqueInsertRejectsAboveRoot) {
  NeighborTable t(1, 1);
  t.try_insert_unique(0, 0.5, 1);
  t.try_insert_unique(0, 0.9, 2);
  EXPECT_EQ(t.sorted_row(0)[0].second, 1);
}

TEST(NeighborTable, ResetClearsContents) {
  NeighborTable t(2, 2);
  t.try_insert(0, 0.1, 1);
  t.try_insert(1, 0.2, 2);
  t.reset();
  EXPECT_TRUE(t.sorted_row(0).empty());
  EXPECT_TRUE(t.sorted_row(1).empty());
}

TEST(NeighborTable, ResizeChangesShape) {
  NeighborTable t(2, 2);
  t.resize(5, 7);
  EXPECT_EQ(t.rows(), 5);
  EXPECT_EQ(t.k(), 7);
  EXPECT_TRUE(t.all_rows_are_heaps());
}

TEST(NeighborTable, ManyRowsIndependent) {
  const int m = 100, k = 4;
  NeighborTable t(m, k);
  Xoshiro256 rng(33);
  for (int i = 0; i < m; ++i) {
    t.try_insert(i, static_cast<double>(i), i * 10);
  }
  for (int i = 0; i < m; ++i) {
    const auto row = t.sorted_row(i);
    ASSERT_EQ(row.size(), 1u);
    EXPECT_EQ(row[0], std::make_pair(static_cast<double>(i), i * 10));
  }
}


TEST(RowIdSet, InsertAndContains) {
  RowIdSet s;
  s.init(4);
  EXPECT_FALSE(s.contains(7));
  EXPECT_TRUE(s.insert_if_absent(7));
  EXPECT_TRUE(s.contains(7));
  EXPECT_FALSE(s.insert_if_absent(7));
  EXPECT_EQ(s.size(), 1);
}

TEST(RowIdSet, GrowsPastInitialCapacity) {
  RowIdSet s;
  s.init(2);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(s.insert_if_absent(i));
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(s.contains(i));
  for (int i = 1000; i < 1100; ++i) EXPECT_FALSE(s.contains(i));
  EXPECT_EQ(s.size(), 1000);
}

TEST(RowIdSet, CollidingIdsAreDistinct) {
  // Ids that collide modulo small capacities must still be distinguished.
  RowIdSet s;
  s.init(4);
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(s.insert_if_absent(i * 1024));
  for (int i = 0; i < 64; ++i) EXPECT_FALSE(s.insert_if_absent(i * 1024));
}

TEST(NeighborTable, DedupIndexMatchesLinearScan) {
  Xoshiro256 rng(77);
  NeighborTable indexed(1, 8), scanned(1, 8);
  indexed.enable_dedup_index();
  for (int step = 0; step < 500; ++step) {
    const int id = static_cast<int>(rng.below(40));  // many repeats
    const double d = rng.uniform();
    indexed.try_insert_unique(0, d, id);
    scanned.try_insert_unique(0, d, id);
  }
  // Note: the two are NOT guaranteed identical in general (the append-only
  // index also rejects re-offers of *evicted* ids, which under this test's
  // varying-distance-per-id stream can differ), but both must have unique
  // ids and valid heaps.
  for (auto* t : {&indexed, &scanned}) {
    std::vector<int> ids;
    for (const auto& [dist, id] : t->sorted_row(0)) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
    EXPECT_TRUE(t->all_rows_are_heaps());
  }
}

TEST(NeighborTable, DedupIndexWithFixedPairDistances) {
  // The kernel's actual regime: each id always arrives with one fixed
  // distance. Indexed and scanned dedup must then agree exactly.
  Xoshiro256 rng(78);
  std::vector<double> dist_of(100);
  for (double& v : dist_of) v = rng.uniform();
  NeighborTable indexed(1, 6), scanned(1, 6);
  indexed.enable_dedup_index();
  for (int step = 0; step < 2000; ++step) {
    const int id = static_cast<int>(rng.below(100));
    indexed.try_insert_unique(0, dist_of[static_cast<std::size_t>(id)], id);
    scanned.try_insert_unique(0, dist_of[static_cast<std::size_t>(id)], id);
  }
  EXPECT_EQ(indexed.sorted_row(0), scanned.sorted_row(0));
}

TEST(NeighborTable, ResetReinitializesDedupIndex) {
  NeighborTable t(1, 2);
  t.enable_dedup_index();
  t.try_insert_unique(0, 0.5, 9);
  t.reset();
  EXPECT_TRUE(t.sorted_row(0).empty());
  t.try_insert_unique(0, 0.4, 9);  // must be accepted again after reset
  ASSERT_EQ(t.sorted_row(0).size(), 1u);
  EXPECT_EQ(t.sorted_row(0)[0].second, 9);
}

}  // namespace
}  // namespace gsknn
