// All selection placements (Var#1/5) are different schedules of the same
// computation — they must produce identical neighbor sets.
#include <gtest/gtest.h>

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

/// One forced-blocking call checked against the oracle. nc = 12 splits the
/// 53 reference points over five panels.
void expect_matches_oracle(Variant variant, int d, int k, int threads,
                           int nc = 12) {
  const int m = 37, n = 53;
  const PointTable X = make_uniform(d, m + n, 0xBEEF);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KnnConfig cfg;
  cfg.variant = variant;
  cfg.threads = threads;
  cfg.blocking = BlockingParams{8, 4, 8, 16, nc};  // force all loops active

  NeighborTable t(m, k);
  knn_kernel(X, q, r, t, cfg);
  const auto expect = test::brute_force_knn(X, q, r, k);
  for (int i = 0; i < m; ++i) {
    const auto row = t.sorted_row(i);
    ASSERT_EQ(row.size(), expect[static_cast<std::size_t>(i)].size());
    for (std::size_t j = 0; j < row.size(); ++j) {
      EXPECT_NEAR(row[j].first, expect[static_cast<std::size_t>(i)][j].first,
                  1e-9)
          << "variant=" << static_cast<int>(variant) << " d=" << d
          << " k=" << k << " threads=" << threads << " nc=" << nc
          << " i=" << i << " j=" << j;
    }
  }
}

class VariantSweep
    : public ::testing::TestWithParam<std::tuple<Variant, int, int, int>> {};

TEST_P(VariantSweep, MatchesOracle) {
  const auto [variant, d, k, threads] = GetParam();
  expect_matches_oracle(variant, d, k, threads);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VariantSweep,
    ::testing::Combine(::testing::ValuesIn(test::kExplicitVariants),
                       ::testing::Values(3, 8, 20),  // below/at/above dc=8
                       ::testing::Values(1, 7, 16),
                       // one thread, and the parallel tile and selection paths
                       ::testing::Values(1, 4)));

// The same sweep with all 53 reference points in one nc = 56 panel: Var#5
// then merges each row once after its last column (the paper's Var#6
// computation, and the path of every n <= nc call).
class OnePanelSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(OnePanelSweep, Var5MatchesOracle) {
  const auto [d, k, threads] = GetParam();
  expect_matches_oracle(Variant::kVar5, d, k, threads, 56);
}

INSTANTIATE_TEST_SUITE_P(
    AllDepths, OnePanelSweep,
    ::testing::Combine(::testing::Values(3, 8, 20), ::testing::Values(1, 7, 16),
                       ::testing::Values(1, 4)));

TEST(VariantConsistency, AllVariantsIdenticalNeighborSets) {
  const int m = 29, n = 61, d = 13, k = 9;
  const PointTable X = make_uniform(d, m + n, 0xF00D);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  KnnConfig cfg;
  cfg.blocking = BlockingParams{8, 4, 8, 16, 12};

  std::vector<std::vector<std::pair<double, int>>> reference_rows;
  for (Variant v : test::kExplicitVariants) {
    cfg.variant = v;
    NeighborTable t(m, k);
    knn_kernel(X, q, r, t, cfg);
    if (reference_rows.empty()) {
      for (int i = 0; i < m; ++i) reference_rows.push_back(t.sorted_row(i));
      continue;
    }
    for (int i = 0; i < m; ++i) {
      const auto row = t.sorted_row(i);
      ASSERT_EQ(row.size(), reference_rows[static_cast<std::size_t>(i)].size());
      for (std::size_t j = 0; j < row.size(); ++j) {
        EXPECT_EQ(row[j], reference_rows[static_cast<std::size_t>(i)][j])
            << "variant=" << static_cast<int>(v);
      }
    }
  }
}

TEST(VariantResolve, ExplicitChoiceIsHonored) {
  KnnConfig cfg;
  for (Variant v : test::kExplicitVariants) {
    cfg.variant = v;
    EXPECT_EQ(resolve_variant(100, 100, 10, 5, cfg), v);
  }
}

TEST(VariantResolve, AutoPrefersVar1ForSmallK) {
  KnnConfig cfg;  // kAuto
  EXPECT_EQ(resolve_variant(8192, 8192, 64, 16, cfg), Variant::kVar1);
}

TEST(VariantResolve, AutoPrefersVar5ForHugeK) {
  KnnConfig cfg;  // kAuto
  EXPECT_EQ(resolve_variant(8192, 8192, 16, 8192, cfg), Variant::kVar5);
}

// kAuto switches to Var#5 exactly where row_select starts batching
// (kBatchSelectMinK = 256), whatever the shape: at join-select's
// m = 2048, n = 4096, d = 64 and at the serving runtime's single query.
TEST(VariantResolve, BatchThresholdBoundary) {
  KnnConfig cfg;  // kAuto
  for (const int m : {2048, 1}) {
    EXPECT_EQ(resolve_variant(m, 4096, 64, 255, cfg), Variant::kVar1)
        << "m=" << m;
    EXPECT_EQ(resolve_variant(m, 4096, 64, 256, cfg), Variant::kVar5)
        << "m=" << m;
  }
}

TEST(VariantResolve, ThresholdIsMonotoneInK) {
  // Once Auto leaves Var#1, it must not return to it for larger k.
  KnnConfig cfg;
  bool left_var1 = false;
  for (int k = 1; k <= 4096; k *= 2) {
    const Variant v = resolve_variant(8192, 8192, 32, k, cfg);
    if (left_var1) {
      EXPECT_NE(v, Variant::kVar1) << "k=" << k;
    }
    left_var1 = left_var1 || (v != Variant::kVar1);
  }
  EXPECT_TRUE(left_var1);
}

}  // namespace
}  // namespace gsknn
