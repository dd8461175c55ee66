// The GEMM-based (Algorithm 2.1) and single-loop baselines must agree with
// the oracle and with GSKNN — they are the comparison points of every
// experiment, so their correctness is as load-bearing as the kernel's.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "gsknn/core/knn.hpp"
#include "gsknn/data/generators.hpp"
#include "test_util.hpp"

namespace gsknn {
namespace {

std::vector<int> iota_ids(int n, int offset = 0) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), offset);
  return v;
}

class BaselineShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(BaselineShapes, GemmBaselineMatchesOracle) {
  const auto [m, n, d, k] = GetParam();
  const PointTable X = make_uniform(d, m + n, 0xCAFE);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  NeighborTable t(m, k);
  knn_gemm_baseline(X, q, r, t, {});
  const auto expect = test::brute_force_knn(X, q, r, k);
  for (int i = 0; i < m; ++i) {
    const auto row = t.sorted_row(i);
    ASSERT_EQ(row.size(), expect[static_cast<std::size_t>(i)].size());
    for (std::size_t j = 0; j < row.size(); ++j) {
      EXPECT_NEAR(row[j].first, expect[static_cast<std::size_t>(i)][j].first,
                  1e-9);
    }
  }
}

TEST_P(BaselineShapes, SingleLoopMatchesOracle) {
  const auto [m, n, d, k] = GetParam();
  const PointTable X = make_uniform(d, m + n, 0xCAFE + 1);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  NeighborTable t(m, k);
  knn_single_loop_baseline(X, q, r, t, {});
  const auto expect = test::brute_force_knn(X, q, r, k);
  for (int i = 0; i < m; ++i) {
    const auto row = t.sorted_row(i);
    ASSERT_EQ(row.size(), expect[static_cast<std::size_t>(i)].size());
    for (std::size_t j = 0; j < row.size(); ++j) {
      EXPECT_NEAR(row[j].first, expect[static_cast<std::size_t>(i)][j].first,
                  1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BaselineShapes,
    ::testing::Values(std::tuple{1, 1, 1, 1}, std::tuple{5, 7, 3, 2},
                      std::tuple{20, 40, 16, 8}, std::tuple{33, 17, 9, 20},
                      std::tuple{64, 64, 32, 1}));

TEST(BaselineAgreement, GsknnAndBaselinesIdentical) {
  const int m = 50, n = 90, d = 24, k = 12;
  const PointTable X = make_uniform(d, m + n, 42);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  NeighborTable a(m, k), b(m, k), c(m, k);
  knn_kernel(X, q, r, a, {});
  knn_gemm_baseline(X, q, r, b, {});
  knn_single_loop_baseline(X, q, r, c, {});
  for (int i = 0; i < m; ++i) {
    const auto ra = a.sorted_row(i);
    const auto rb = b.sorted_row(i);
    const auto rc = c.sorted_row(i);
    ASSERT_EQ(ra.size(), rb.size());
    ASSERT_EQ(ra.size(), rc.size());
    for (std::size_t j = 0; j < ra.size(); ++j) {
      EXPECT_NEAR(ra[j].first, rb[j].first, 1e-9);
      EXPECT_NEAR(ra[j].first, rc[j].first, 1e-9);
      EXPECT_EQ(rb[j].second, rc[j].second);
    }
  }
}

TEST(BaselineBreakdownTiming, PhasesArePopulated) {
  const int m = 40, n = 60, d = 16, k = 4;
  const PointTable X = make_uniform(d, m + n, 77);
  NeighborTable t(m, k);
  telemetry::KernelProfile prof;
  KnnConfig cfg;
  cfg.profile = &prof;
  knn_gemm_baseline(X, iota_ids(m), iota_ids(n, m), t, cfg);
  using telemetry::Phase;
  EXPECT_GE(prof.phase(Phase::kCollect), 0.0);
  EXPECT_GE(prof.phase(Phase::kMicro), 0.0);
  EXPECT_GE(prof.phase(Phase::kSq2d), 0.0);
  EXPECT_GE(prof.phase(Phase::kSelect), 0.0);
  EXPECT_GT(prof.phase(Phase::kCollect) + prof.phase(Phase::kMicro) +
                prof.phase(Phase::kSq2d) + prof.phase(Phase::kSelect),
            0.0);
}

TEST(BaselineDedup, GemmBaselineSkipsDuplicateIds) {
  const PointTable X = make_uniform(6, 40, 78);
  const auto q = iota_ids(8);
  std::vector<int> r;
  for (int rep = 0; rep < 2; ++rep) {
    for (int j = 8; j < 40; ++j) r.push_back(j);
  }
  KnnConfig cfg;
  cfg.dedup = true;
  NeighborTable t(8, 5);
  knn_gemm_baseline(X, q, r, t, cfg);
  const auto expect = test::brute_force_knn(X, q, iota_ids(32, 8), 5);
  for (int i = 0; i < 8; ++i) {
    const auto row = t.sorted_row(i);
    ASSERT_EQ(row.size(), 5u);
    std::vector<int> ids;
    for (const auto& [dist, id] : row) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(row[j].first, expect[static_cast<std::size_t>(i)][j].first,
                  1e-9);
    }
  }
}

TEST(BaselineNorms, SingleLoopSupportsAllNorms) {
  const PointTable X = make_uniform(5, 30, 79);
  const auto q = iota_ids(10);
  const auto r = iota_ids(20, 10);
  for (Norm norm : {Norm::kL1, Norm::kLInf, Norm::kLp}) {
    KnnConfig cfg;
    cfg.norm = norm;
    NeighborTable t(10, 3);
    knn_single_loop_baseline(X, q, r, t, cfg);
    const auto expect = test::brute_force_knn(X, q, r, 3, norm, cfg.p);
    for (int i = 0; i < 10; ++i) {
      const auto row = t.sorted_row(i);
      ASSERT_EQ(row.size(), 3u);
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_NEAR(row[j].first, expect[static_cast<std::size_t>(i)][j].first,
                    1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace gsknn
