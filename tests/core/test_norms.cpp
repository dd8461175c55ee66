// ℓp-norm micro-kernel family (§2.4): every norm must match the scalar
// oracle, and the metric axioms must hold on the reported distances.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>
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

class NormSweep
    : public ::testing::TestWithParam<std::tuple<Norm, Variant, int>> {};

TEST_P(NormSweep, MatchesOracle) {
  const auto [norm, variant, d] = GetParam();
  const int m = 23, n = 41, k = 6;
  const PointTable X = make_uniform(d, m + n, 0xABCD);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KnnConfig cfg;
  cfg.norm = norm;
  cfg.variant = variant;
  cfg.p = 3.0;
  cfg.blocking = BlockingParams{8, 4, 8, 16, 12};

  NeighborTable t(m, k);
  knn_kernel(X, q, r, t, cfg);
  const auto expect = test::brute_force_knn(X, q, r, k, norm, cfg.p);
  for (int i = 0; i < m; ++i) {
    const auto row = t.sorted_row(i);
    ASSERT_EQ(row.size(), expect[static_cast<std::size_t>(i)].size());
    for (std::size_t j = 0; j < row.size(); ++j) {
      EXPECT_NEAR(row[j].first, expect[static_cast<std::size_t>(i)][j].first,
                  1e-9 * std::max(1.0, expect[static_cast<std::size_t>(i)][j].first))
          << "norm=" << static_cast<int>(norm) << " d=" << d << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Norms, NormSweep,
    ::testing::Combine(::testing::Values(Norm::kL2Sq, Norm::kL1, Norm::kLInf,
                                         Norm::kLp, Norm::kCosine),
                       ::testing::ValuesIn(test::kExplicitVariants),
                       ::testing::Values(3, 8, 17)));

TEST(Norms, CosineAgreesAcrossAllImplementations) {
  const int m = 19, n = 35, k = 5, d = 24;
  const PointTable X = make_uniform(d, m + n, 0xC051);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  KnnConfig cfg;
  cfg.norm = Norm::kCosine;

  NeighborTable fused(m, k), gemm(m, k), loop(m, k);
  knn_kernel(X, q, r, fused, cfg);
  knn_gemm_baseline(X, q, r, gemm, cfg);
  knn_single_loop_baseline(X, q, r, loop, cfg);
  const auto expect = test::brute_force_knn(X, q, r, k, Norm::kCosine);
  for (int i = 0; i < m; ++i) {
    const auto rf = fused.sorted_row(i);
    const auto rg = gemm.sorted_row(i);
    const auto rl = loop.sorted_row(i);
    ASSERT_EQ(rf.size(), expect[static_cast<std::size_t>(i)].size());
    for (std::size_t j = 0; j < rf.size(); ++j) {
      const double want = expect[static_cast<std::size_t>(i)][j].first;
      EXPECT_NEAR(rf[j].first, want, 1e-10);
      EXPECT_NEAR(rg[j].first, want, 1e-10);
      EXPECT_NEAR(rl[j].first, want, 1e-10);
    }
  }
}

TEST(Norms, CosineScaleInvariance) {
  // Cosine distance must ignore vector magnitude: scale one reference by
  // 1000 and its distance to every query is unchanged.
  const int d = 8;
  PointTable X(d, 3);
  for (int r = 0; r < d; ++r) {
    X.at(r, 0) = 0.1 * (r + 1);          // query
    X.at(r, 1) = 0.3 * (d - r);          // reference
    X.at(r, 2) = 1000.0 * 0.3 * (d - r); // scaled copy of reference
  }
  X.compute_norms();
  KnnConfig cfg;
  cfg.norm = Norm::kCosine;
  const std::vector<int> q = {0};
  const std::vector<int> refs = {1, 2};
  NeighborTable t(1, 2);
  knn_kernel(X, q, refs, t, cfg);
  const auto row = t.sorted_row(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_NEAR(row[0].first, row[1].first, 1e-12);
}

TEST(Norms, LpExponentVariesResults) {
  // Different p give genuinely different neighbor orderings on suitable data.
  PointTable X(2, 4);
  // Query at origin; a: (0.6, 0.6), b: (0.9, 0.05).
  X.at(0, 0) = 0.0;
  X.at(1, 0) = 0.0;
  X.at(0, 1) = 0.6;
  X.at(1, 1) = 0.6;
  X.at(0, 2) = 0.9;
  X.at(1, 2) = 0.05;
  X.at(0, 3) = 5.0;
  X.at(1, 3) = 5.0;
  X.compute_norms();
  const std::vector<int> q = {0};
  const std::vector<int> r = {1, 2, 3};

  // ℓ1: a = 1.2, b = 0.95 → b nearer. ℓ∞: a = 0.6, b = 0.9 → a nearer.
  KnnConfig cfg;
  cfg.norm = Norm::kL1;
  NeighborTable t1(1, 1);
  knn_kernel(X, q, r, t1, cfg);
  EXPECT_EQ(t1.sorted_row(0)[0].second, 2);

  cfg.norm = Norm::kLInf;
  NeighborTable ti(1, 1);
  knn_kernel(X, q, r, ti, cfg);
  EXPECT_EQ(ti.sorted_row(0)[0].second, 1);
}

TEST(Norms, SelfDistanceIsZeroUnderEveryNorm) {
  const PointTable X = make_uniform(7, 30, 5);
  const auto all = iota_ids(30);
  for (Norm norm : {Norm::kL2Sq, Norm::kL1, Norm::kLInf, Norm::kLp}) {
    KnnConfig cfg;
    cfg.norm = norm;
    NeighborTable t(30, 1);
    knn_kernel(X, all, all, t, cfg);
    for (int i = 0; i < 30; ++i) {
      const auto row = t.sorted_row(i);
      ASSERT_EQ(row.size(), 1u);
      EXPECT_EQ(row[0].second, i);
      EXPECT_NEAR(row[0].first, 0.0, 1e-12);
    }
  }
}

TEST(Norms, SymmetryOfReportedDistances) {
  const PointTable X = make_uniform(5, 20, 6);
  for (Norm norm : {Norm::kL1, Norm::kLInf}) {
    KnnConfig cfg;
    cfg.norm = norm;
    const std::vector<int> a = {3};
    const std::vector<int> b = {17};
    NeighborTable tab(1, 1), tba(1, 1);
    knn_kernel(X, a, b, tab, cfg);
    knn_kernel(X, b, a, tba, cfg);
    EXPECT_NEAR(tab.sorted_row(0)[0].first, tba.sorted_row(0)[0].first, 1e-12);
  }
}

TEST(Norms, GemmBaselineRejectsNonEuclidean) {
  const PointTable X = make_uniform(4, 10, 7);
  const auto q = iota_ids(5);
  const auto r = iota_ids(5, 5);
  NeighborTable t(5, 2);
  KnnConfig cfg;
  cfg.norm = Norm::kL1;
  EXPECT_THROW(knn_gemm_baseline(X, q, r, t, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace gsknn
