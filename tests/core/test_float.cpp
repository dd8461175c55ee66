// Single-precision kernel path: float results must match the double oracle
// to float precision, across variants, norms, and tile edge cases (the
// float tiles are 8×8/16×8, so these shapes differ from the double tests).
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

/// Relative tolerance for float-vs-double distance comparison: float has
/// ~7 digits; the rank-dc accumulation over d terms loses a few more bits.
double ftol(double ref, int d) {
  return 1e-5 * std::max(1.0, ref) * std::sqrt(static_cast<double>(d));
}

void check_float_against_oracle(int m, int n, int d, int k, Variant variant,
                                Norm norm, std::uint64_t seed) {
  const PointTable Xd = make_uniform(d, m + n, seed);
  const PointTableF Xf = to_float(Xd);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KnnConfig cfg;
  cfg.variant = variant;
  cfg.norm = norm;
  NeighborTableF result(m, k);
  knn_kernel(Xf, q, r, result, cfg);
  ASSERT_TRUE(result.all_rows_are_heaps());

  const auto expect = test::brute_force_knn(Xd, q, r, k, norm, cfg.p);
  for (int i = 0; i < m; ++i) {
    const auto row = result.sorted_row(i);
    ASSERT_EQ(row.size(), expect[static_cast<std::size_t>(i)].size())
        << "row " << i;
    for (std::size_t j = 0; j < row.size(); ++j) {
      const double want = expect[static_cast<std::size_t>(i)][j].first;
      EXPECT_NEAR(row[j].first, want, ftol(want, d))
          << "row " << i << " j " << j;
    }
  }
}

using FloatShape = std::tuple<int, int, int, int>;

class FloatKernelShapes : public ::testing::TestWithParam<FloatShape> {};

TEST_P(FloatKernelShapes, Var1MatchesDoubleOracle) {
  const auto [m, n, d, k] = GetParam();
  check_float_against_oracle(m, n, d, k, Variant::kVar1, Norm::kL2Sq,
                             0xF10A7 + d);
}

TEST_P(FloatKernelShapes, Var5MatchesDoubleOracle) {
  const auto [m, n, d, k] = GetParam();
  check_float_against_oracle(m, n, d, k, Variant::kVar5, Norm::kL2Sq,
                             0xF10A8 + d);
}

INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, FloatKernelShapes,
    ::testing::Values(FloatShape{1, 1, 1, 1},
                      FloatShape{16, 8, 8, 2},    // one avx512-float tile
                      FloatShape{17, 9, 5, 3},    // one past the tile
                      FloatShape{15, 7, 9, 3},    // sub-tile edges
                      FloatShape{40, 30, 20, 5},
                      FloatShape{33, 50, 3, 50},  // k == n
                      FloatShape{64, 64, 24, 1},
                      FloatShape{25, 100, 300, 10}));  // d > any dc? no — deep d

TEST(FloatKernel, AllNormsMatchOracle) {
  for (Norm norm : {Norm::kL2Sq, Norm::kL1, Norm::kLInf, Norm::kCosine,
                    Norm::kLp}) {
    check_float_against_oracle(23, 41, 12, 6, Variant::kVar1, norm,
                               0xF200 + static_cast<int>(norm));
    check_float_against_oracle(23, 41, 12, 6, Variant::kVar5, norm,
                               0xF300 + static_cast<int>(norm));
  }
}

TEST(FloatKernel, AllVariantsAgree) {
  const int m = 29, n = 61, d = 13, k = 9;
  const PointTableF Xf = to_float(make_uniform(d, m + n, 0xF00F));
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  std::vector<std::vector<std::pair<float, int>>> first_rows;
  for (Variant v : test::kExplicitVariants) {
    KnnConfig cfg;
    cfg.variant = v;
    NeighborTableF t(m, k);
    knn_kernel(Xf, q, r, t, cfg);
    if (first_rows.empty()) {
      for (int i = 0; i < m; ++i) first_rows.push_back(t.sorted_row(i));
      continue;
    }
    for (int i = 0; i < m; ++i) {
      const auto row = t.sorted_row(i);
      ASSERT_EQ(row.size(), first_rows[static_cast<std::size_t>(i)].size());
      for (std::size_t j = 0; j < row.size(); ++j) {
        // Distances may differ in the last ulp between the fused (Var#1)
        // and buffered paths; ordering statistics must agree to float eps.
        EXPECT_NEAR(row[j].first,
                    first_rows[static_cast<std::size_t>(i)][j].first,
                    1e-5f)
            << "variant " << static_cast<int>(v);
      }
    }
  }
}

TEST(FloatKernel, DeepDimensionAccumulation) {
  // d = 700 crosses the float dc boundary several times: the Cc carry path.
  check_float_against_oracle(20, 24, 700, 4, Variant::kVar1, Norm::kL2Sq,
                             0xF500);
  check_float_against_oracle(20, 24, 700, 4, Variant::kVar5, Norm::kL2Sq,
                             0xF501);
}

TEST(FloatKernel, LargeKVar5) {
  check_float_against_oracle(24, 200, 16, 64, Variant::kVar5, Norm::kL2Sq,
                             0xF600);
}

TEST(FloatKernel, SelfDistanceZero) {
  const PointTableF Xf = to_float(make_uniform(10, 64, 0xF700));
  const auto all = iota_ids(64);
  NeighborTableF t(64, 1);
  knn_kernel(Xf, all, all, t);
  for (int i = 0; i < 64; ++i) {
    const auto row = t.sorted_row(i);
    ASSERT_EQ(row.size(), 1u);
    EXPECT_EQ(row[0].second, i);
    // The float GEMM expansion leaves an O(‖q‖²·eps) residual at zero.
    EXPECT_NEAR(row[0].first, 0.0f, 1e-5f);
  }
}

TEST(FloatKernel, DedupUniqueIds) {
  const PointTableF Xf = to_float(make_uniform(6, 40, 0xF800));
  const auto q = iota_ids(8);
  std::vector<int> r;
  for (int rep = 0; rep < 3; ++rep) {
    for (int j = 8; j < 40; ++j) r.push_back(j);
  }
  KnnConfig cfg;
  cfg.dedup = true;
  NeighborTableF t(8, 5);
  t.enable_dedup_index();
  knn_kernel(Xf, q, r, t, cfg);
  for (int i = 0; i < 8; ++i) {
    std::vector<int> ids;
    for (const auto& [dist, id] : t.sorted_row(i)) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
    EXPECT_EQ(ids.size(), 5u);
  }
}

TEST(ToFloat, NarrowsCoordsAndRecomputesNorms) {
  const PointTable d = make_uniform(5, 30, 0xF900);
  const PointTableF f = to_float(d);
  ASSERT_EQ(f.dim(), 5);
  ASSERT_EQ(f.size(), 30);
  for (int i = 0; i < 30; ++i) {
    float norm = 0.0f;
    for (int r = 0; r < 5; ++r) {
      EXPECT_EQ(f.at(r, i), static_cast<float>(d.at(r, i)));
      norm += f.at(r, i) * f.at(r, i);
    }
    EXPECT_NEAR(f.norms2()[i], norm, 1e-6f);
  }
}

}  // namespace
}  // namespace gsknn
