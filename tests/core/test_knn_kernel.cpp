// End-to-end correctness of the GSKNN kernel against the brute-force oracle,
// across problem shapes chosen to hit every blocking edge case: sizes that
// are not multiples of mr/nr/mc/nc, dimensions that straddle dc, k ≥ n, and
// tiny degenerate problems.
#include "gsknn/core/knn.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <vector>

#include "gsknn/data/generators.hpp"
#include "test_util.hpp"

namespace gsknn {
namespace {

using test::brute_force_knn;

std::vector<int> iota_ids(int n, int offset = 0) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), offset);
  return v;
}

/// Small blocking so modest test sizes still exercise all six loops.
BlockingParams tiny_blocking() {
  BlockingParams b;
  b.mr = 8;
  b.nr = 4;
  b.dc = 8;
  b.mc = 16;
  b.nc = 12;
  return b;
}

void check_against_oracle(const PointTable& X, std::span<const int> qidx,
                          std::span<const int> ridx, int k,
                          const KnnConfig& cfg) {
  NeighborTable got(static_cast<int>(qidx.size()), k);
  knn_kernel(X, qidx, ridx, got, cfg);
  const auto expect = brute_force_knn(X, qidx, ridx, k, cfg.norm, cfg.p);
  ASSERT_TRUE(got.all_rows_are_heaps());
  for (std::size_t i = 0; i < qidx.size(); ++i) {
    const auto row = got.sorted_row(static_cast<int>(i));
    ASSERT_EQ(row.size(), expect[i].size()) << "query " << i;
    for (std::size_t j = 0; j < row.size(); ++j) {
      EXPECT_NEAR(row[j].first, expect[i][j].first,
                  1e-9 * std::max(1.0, expect[i][j].first))
          << "query " << i << " neighbor " << j;
    }
  }
}

using ShapeParam = std::tuple<int, int, int, int>;  // m, n, d, k

class KernelShapes : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(KernelShapes, MatchesOracleVar1) {
  const auto [m, n, d, k] = GetParam();
  const PointTable X = make_uniform(d, m + n, 1234);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  KnnConfig cfg;
  cfg.variant = Variant::kVar1;
  cfg.blocking = tiny_blocking();
  check_against_oracle(X, q, r, k, cfg);
}

TEST_P(KernelShapes, MatchesOracleVar5) {
  const auto [m, n, d, k] = GetParam();
  const PointTable X = make_uniform(d, m + n, 4321);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  KnnConfig cfg;
  cfg.variant = Variant::kVar5;
  cfg.blocking = tiny_blocking();
  check_against_oracle(X, q, r, k, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, KernelShapes,
    ::testing::Values(
        ShapeParam{1, 1, 1, 1},        // smallest possible problem
        ShapeParam{8, 4, 8, 2},        // exactly one register tile
        ShapeParam{7, 3, 5, 2},        // everything sub-tile
        ShapeParam{9, 5, 9, 3},        // one past the tile in every dim
        ShapeParam{16, 12, 8, 4},      // exactly mc × nc × dc
        ShapeParam{17, 13, 9, 4},      // one past every cache block
        ShapeParam{40, 30, 20, 5},     // several blocks, ragged edges
        ShapeParam{33, 50, 3, 50},     // k == n (full sort semantics)
        ShapeParam{10, 5, 4, 8},       // k > n (partially filled rows)
        ShapeParam{64, 64, 24, 1},     // k = 1 (pure minimum search)
        ShapeParam{128, 96, 33, 16},   // d straddling 4 dc blocks + edge
        ShapeParam{25, 100, 64, 10}))  // deep d, many dc blocks
    ;

TEST(KernelDefaults, AutoVariantAndDefaultBlocking) {
  const int m = 60, n = 80, d = 12, k = 6;
  const PointTable X = make_uniform(d, m + n, 7);
  check_against_oracle(X, iota_ids(m), iota_ids(n, m), k, KnnConfig{});
}

TEST(KernelGeneralStride, ArbitraryIndexSubsets) {
  // Queries and references drawn as scattered, overlapping, unordered
  // subsets of X — the "general stride" feature.
  const PointTable X = make_uniform(10, 200, 88);
  std::vector<int> q = {5, 190, 3, 77, 41, 41 + 1, 0, 199};
  std::vector<int> r;
  for (int i = 0; i < 100; ++i) r.push_back((i * 37) % 200);
  KnnConfig cfg;
  cfg.blocking = tiny_blocking();
  for (Variant v : test::kExplicitVariants) {
    cfg.variant = v;
    check_against_oracle(X, q, r, 4, cfg);
  }
}

TEST(KernelGeneralStride, QueryAppearsInReferences) {
  // Self-distance 0 must be reported first when a query is also a reference.
  const PointTable X = make_uniform(6, 50, 9);
  const auto all = iota_ids(50);
  NeighborTable t(50, 3);
  KnnConfig cfg;
  cfg.blocking = tiny_blocking();
  knn_kernel(X, all, all, t, cfg);
  for (int i = 0; i < 50; ++i) {
    const auto row = t.sorted_row(i);
    ASSERT_EQ(row.size(), 3u);
    EXPECT_EQ(row[0].second, i);
    EXPECT_NEAR(row[0].first, 0.0, 1e-12);
  }
}

TEST(KernelResultRows, MappingUpdatesCorrectRows) {
  const PointTable X = make_uniform(5, 60, 10);
  const std::vector<int> q = {10, 20, 30};
  const auto r = iota_ids(60);
  NeighborTable global(60, 2);  // one row per point of X
  KnnConfig cfg;
  cfg.blocking = tiny_blocking();
  knn_kernel(X, q, r, global, cfg, q);  // row for query i = q[i]
  const auto expect = brute_force_knn(X, q, r, 2);
  for (std::size_t i = 0; i < q.size(); ++i) {
    const auto row = global.sorted_row(q[i]);
    ASSERT_EQ(row.size(), 2u);
    EXPECT_NEAR(row[0].first, expect[i][0].first, 1e-10);
    EXPECT_NEAR(row[1].first, expect[i][1].first, 1e-10);
  }
  // Untouched rows stay empty.
  EXPECT_TRUE(global.sorted_row(0).empty());
  EXPECT_TRUE(global.sorted_row(59).empty());
}

TEST(KernelIncremental, SecondCallRefinesExistingLists) {
  // Feeding the reference set in two halves must equal one full pass —
  // the iterative-refinement contract the approximate solvers rely on.
  const PointTable X = make_uniform(8, 120, 11);
  const auto q = iota_ids(20);
  const auto all_r = iota_ids(100, 20);
  const std::vector<int> r1(all_r.begin(), all_r.begin() + 50);
  const std::vector<int> r2(all_r.begin() + 50, all_r.end());
  KnnConfig cfg;
  cfg.blocking = tiny_blocking();
  NeighborTable incremental(20, 5);
  knn_kernel(X, q, r1, incremental, cfg);
  knn_kernel(X, q, r2, incremental, cfg);
  NeighborTable full(20, 5);
  knn_kernel(X, q, all_r, full, cfg);
  for (int i = 0; i < 20; ++i) {
    const auto a = incremental.sorted_row(i);
    const auto b = full.sorted_row(i);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_NEAR(a[j].first, b[j].first, 1e-10);
    }
  }
}

TEST(KernelDedup, DuplicateReferencesCollapse) {
  const PointTable X = make_uniform(4, 30, 12);
  const auto q = iota_ids(5);
  // Each reference id listed three times.
  std::vector<int> r;
  for (int rep = 0; rep < 3; ++rep) {
    for (int j = 5; j < 30; ++j) r.push_back(j);
  }
  KnnConfig cfg;
  cfg.blocking = tiny_blocking();
  cfg.dedup = true;
  for (Variant v : test::kExplicitVariants) {
    cfg.variant = v;
    NeighborTable t(5, 4);
    knn_kernel(X, q, r, t, cfg);
    const auto expect = brute_force_knn(X, q, iota_ids(25, 5), 4);
    for (int i = 0; i < 5; ++i) {
      const auto row = t.sorted_row(i);
      ASSERT_EQ(row.size(), 4u) << "variant " << static_cast<int>(v);
      // Ids must be unique.
      std::vector<int> ids;
      for (const auto& [dist, id] : row) ids.push_back(id);
      std::sort(ids.begin(), ids.end());
      EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
      for (std::size_t j = 0; j < 4; ++j) {
        EXPECT_NEAR(row[j].first, expect[static_cast<std::size_t>(i)][j].first,
                    1e-10);
      }
    }
  }
}

TEST(KernelLargeK, Var5MatchesOracle) {
  const PointTable X = make_uniform(16, 300, 13);
  const auto q = iota_ids(40);
  const auto r = iota_ids(260, 40);
  KnnConfig cfg;
  cfg.blocking = tiny_blocking();
  cfg.variant = Variant::kVar5;
  check_against_oracle(X, q, r, 64, cfg);
}

TEST(KernelThreads, ExplicitThreadCountsAgree) {
  const PointTable X = make_uniform(12, 400, 14);
  const auto q = iota_ids(150);
  const auto r = iota_ids(250, 150);
  KnnConfig cfg;
  cfg.blocking = tiny_blocking();
  for (int threads : {1, 2, 4}) {
    cfg.threads = threads;
    check_against_oracle(X, q, r, 8, cfg);
  }
}

TEST(KernelErrors, RejectsBadArguments) {
  const PointTable X = make_uniform(4, 10, 15);
  const auto q = iota_ids(5);
  const auto r = iota_ids(5, 5);
  NeighborTable small(3, 2);  // fewer rows than queries
  EXPECT_THROW(knn_kernel(X, q, r, small, {}), std::invalid_argument);

  NeighborTable ok(5, 2);
  const std::vector<int> bad_rows = {0, 1};  // wrong mapping length
  EXPECT_THROW(knn_kernel(X, q, r, ok, {}, bad_rows), std::invalid_argument);

  KnnConfig bad_blocking;
  bad_blocking.blocking = BlockingParams{8, 4, 0, 16, 12};
  EXPECT_THROW(knn_kernel(X, q, r, ok, bad_blocking), std::invalid_argument);
}

TEST(KernelEmpty, ZeroQueriesOrReferencesNoop) {
  const PointTable X = make_uniform(4, 10, 16);
  NeighborTable t(5, 2);
  knn_kernel(X, {}, iota_ids(5), t, {});
  knn_kernel(X, iota_ids(5), {}, t, {});
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(t.sorted_row(i).empty());
}

TEST(KernelScalarPath, ForcedScalarMatchesVectorized) {
  // GSKNN_MAX_SIMD is evaluated once per process, so instead compare
  // explicit micro-kernel paths through the blocking override: the scalar
  // kernel is exercised by the kLp norm (no vector path exists).
  const PointTable X = make_uniform(9, 100, 17);
  const auto q = iota_ids(30);
  const auto r = iota_ids(70, 30);
  KnnConfig cfg;
  cfg.blocking = tiny_blocking();
  cfg.norm = Norm::kLp;
  cfg.p = 2.0;  // ℓp with p=2 gives squared-ℓ2-equal distances
  NeighborTable lp(30, 5);
  knn_kernel(X, q, r, lp, cfg);
  cfg.norm = Norm::kL2Sq;
  NeighborTable l2(30, 5);
  knn_kernel(X, q, r, l2, cfg);
  for (int i = 0; i < 30; ++i) {
    const auto a = lp.sorted_row(i);
    const auto b = l2.sorted_row(i);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_NEAR(a[j].first, b[j].first, 1e-8);
    }
  }
}

}  // namespace
}  // namespace gsknn
