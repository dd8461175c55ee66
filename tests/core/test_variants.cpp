// All selection placements (Var#1/5/6) are different schedules of the same
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

const Variant kAllVariants[] = {Variant::kVar1, Variant::kVar5, Variant::kVar6};

std::vector<int> iota_ids(int n, int offset = 0) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), offset);
  return v;
}

class VariantSweep
    : public ::testing::TestWithParam<std::tuple<Variant, int, int, int>> {};

TEST_P(VariantSweep, MatchesOracle) {
  const auto [variant, d, k, threads] = GetParam();
  const int m = 37, n = 53;
  const PointTable X = make_uniform(d, m + n, 0xBEEF);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KnnConfig cfg;
  cfg.variant = variant;
  cfg.threads = threads;
  cfg.blocking = BlockingParams{8, 4, 8, 16, 12};  // force all loops active

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
          << " k=" << k << " threads=" << threads << " i=" << i
          << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VariantSweep,
    ::testing::Combine(::testing::ValuesIn(kAllVariants),
                       ::testing::Values(3, 8, 20),  // below/at/above dc=8
                       ::testing::Values(1, 7, 16),
                       // one thread, and the parallel tile and selection paths
                       ::testing::Values(1, 4)));

TEST(VariantConsistency, AllVariantsIdenticalNeighborSets) {
  const int m = 29, n = 61, d = 13, k = 9;
  const PointTable X = make_uniform(d, m + n, 0xF00D);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  KnnConfig cfg;
  cfg.blocking = BlockingParams{8, 4, 8, 16, 12};

  std::vector<std::vector<std::pair<double, int>>> reference_rows;
  for (Variant v : kAllVariants) {
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
  for (Variant v : kAllVariants) {
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
