// Edge-tile exact parity: shapes where m, n, d are NOT multiples of the
// register tile (m_r, n_r) or the depth block d_c stress the zero-padded
// tail groups of the vectorized pack and the rows/cols masking of the fused
// kernels' selection epilogues — the riskiest lines of the hot-path
// overhaul. Every shape must reproduce the brute-force oracle, for variants
// 1 and 5, both precisions, and the k = 1 / small-k / batched selection
// paths. The same suite is registered under GSKNN_MAX_SIMD caps (see
// tests/CMakeLists.txt) so the AVX2 and scalar tails get identical coverage.
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

using test::kExplicitVariants;

struct Shape {
  int m, n, d;
};

/// Deliberately off every tile grid this build can dispatch to: the double
/// kernels tile 8×4 or 16×8, the float kernels 8×8 or 16×8, and the forced
/// blocking below uses d_c = 8. None of these m/n/d are multiples of any of
/// those, so every loop level ends in a partial tile.
const Shape kEdgeShapes[] = {
    {1, 1, 1},     {7, 3, 5},      {17, 9, 11},   {15, 31, 13},
    {33, 21, 7},   {37, 53, 27},   {19, 45, 101},
};

/// Forced tiny blocking (dc=8, mc=16, nc=12) so the jc/pc/ic loops all
/// iterate even on these small shapes. Its 8×4 tile pins the dispatch to the
/// kernel with that tile (AVX2 or scalar for double, scalar for float); the
/// wider AVX-512 tiles are covered by EdgeTileDefaultBlocking below.
KnnConfig edge_config(Variant v, int nc = 12) {
  KnnConfig cfg;
  cfg.variant = v;
  cfg.blocking = BlockingParams{8, 4, 8, 16, nc};
  return cfg;
}

/// A panel width no edge shape's n exceeds: Var#5 then selects once per
/// finished row (the paper's Var#6 computation) instead of once per panel.
constexpr int kOnePanelNc = 56;

/// Exact-parity check for the double path: distances to 1e-9 and, wherever
/// the oracle's neighbor is separated from its rank neighbors by more than
/// the tolerance (no tie ambiguity), the id as well.
void check_double(int m, int n, int d, int k, Variant variant,
                  std::uint64_t seed, int nc = 12) {
  const PointTable X = make_uniform(d, m + n, seed);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  NeighborTable t(m, k);
  knn_kernel(X, q, r, t, edge_config(variant, nc));
  ASSERT_TRUE(t.all_rows_are_heaps());

  const auto expect = test::brute_force_knn(X, q, r, k);
  for (int i = 0; i < m; ++i) {
    const auto row = t.sorted_row(i);
    const auto& want = expect[static_cast<std::size_t>(i)];
    ASSERT_EQ(row.size(), want.size()) << "row " << i;
    for (std::size_t j = 0; j < row.size(); ++j) {
      EXPECT_NEAR(row[j].first, want[j].first, 1e-9)
          << "variant=" << static_cast<int>(variant) << " i=" << i
          << " j=" << j;
      const bool tie_above =
          j + 1 < want.size() && want[j + 1].first - want[j].first < 1e-7;
      const bool tie_below = j > 0 && want[j].first - want[j - 1].first < 1e-7;
      if (!tie_above && !tie_below) {
        EXPECT_EQ(row[j].second, want[j].second)
            << "variant=" << static_cast<int>(variant) << " i=" << i
            << " j=" << j;
      }
    }
  }
}

/// Float path against the double oracle (float-precision tolerance; same
/// scheme as test_float.cpp).
void check_float(int m, int n, int d, int k, Variant variant,
                 std::uint64_t seed, int nc = 12) {
  const PointTable Xd = make_uniform(d, m + n, seed);
  const PointTableF Xf = to_float(Xd);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  NeighborTableF t(m, k);
  knn_kernel(Xf, q, r, t, edge_config(variant, nc));
  ASSERT_TRUE(t.all_rows_are_heaps());

  const auto expect = test::brute_force_knn(Xd, q, r, k);
  for (int i = 0; i < m; ++i) {
    const auto row = t.sorted_row(i);
    const auto& want = expect[static_cast<std::size_t>(i)];
    ASSERT_EQ(row.size(), want.size()) << "row " << i;
    for (std::size_t j = 0; j < row.size(); ++j) {
      const double tol =
          1e-5 * std::max(1.0, want[j].first) * std::sqrt(double(d));
      EXPECT_NEAR(row[j].first, want[j].first, tol)
          << "variant=" << static_cast<int>(variant) << " i=" << i
          << " j=" << j;
    }
  }
}

class EdgeTileSweep
    : public ::testing::TestWithParam<std::tuple<int, Variant, int>> {};

TEST_P(EdgeTileSweep, DoubleMatchesOracle) {
  const auto [si, variant, kraw] = GetParam();
  const Shape s = kEdgeShapes[si];
  const int k = std::min(kraw, s.n);
  check_double(s.m, s.n, s.d, k, variant, 0xED6E + static_cast<unsigned>(si));
}

TEST_P(EdgeTileSweep, FloatMatchesOracle) {
  const auto [si, variant, kraw] = GetParam();
  const Shape s = kEdgeShapes[si];
  const int k = std::min(kraw, s.n);
  check_float(s.m, s.n, s.d, k, variant, 0xFD6E + static_cast<unsigned>(si));
}

INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, EdgeTileSweep,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(std::size(kEdgeShapes))),
        ::testing::ValuesIn(kExplicitVariants),
        // k = 1 (single-slot accept), 2 and 4 (sorted small-k row,
        // kSmallSortedK = 4), 17 (binary sift, off the power-of-two grid).
        ::testing::Values(1, 2, 4, 17)));

// The same shapes and k with every row in one reference panel: Var#5
// merges each row once after its last column, the path every n <= nc call
// takes, where nc = 12 above splits the wider rows over several panels.
class EdgeTileOnePanel
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EdgeTileOnePanel, DoubleMatchesOracle) {
  const auto [si, kraw] = GetParam();
  const Shape s = kEdgeShapes[si];
  ASSERT_LE(s.n, kOnePanelNc);
  const int k = std::min(kraw, s.n);
  check_double(s.m, s.n, s.d, k, Variant::kVar5,
               0xED6E + static_cast<unsigned>(si), kOnePanelNc);
}

TEST_P(EdgeTileOnePanel, FloatMatchesOracle) {
  const auto [si, kraw] = GetParam();
  const Shape s = kEdgeShapes[si];
  ASSERT_LE(s.n, kOnePanelNc);
  const int k = std::min(kraw, s.n);
  check_float(s.m, s.n, s.d, k, Variant::kVar5,
              0xFD6E + static_cast<unsigned>(si), kOnePanelNc);
}

INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, EdgeTileOnePanel,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(std::size(kEdgeShapes))),
        ::testing::Values(1, 2, 4, 17)));

// At k >= kBatchSelectMinK Var#5 merges each row in one batch while
// Var#1 still inserts candidate by candidate inside the micro-kernel, so
// bitwise identity across the two variants at k = 256 is batched-vs-
// immediate parity on an edge shape (m, n, d all off-grid, n barely above k
// so rows churn). Var#1 runs first and is the reference.
TEST(EdgeTileDeferred, VariantsBitwiseIdenticalAtDeferredK) {
  const int m = 21, n = 387, d = 13, k = 256;
  const PointTable X = make_uniform(d, m + n, 0xDEF1);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  std::vector<std::vector<std::pair<double, int>>> first_rows;
  for (Variant v : kExplicitVariants) {
    NeighborTable t(m, k);
    knn_kernel(X, q, r, t, edge_config(v));
    if (first_rows.empty()) {
      for (int i = 0; i < m; ++i) first_rows.push_back(t.sorted_row(i));
      continue;
    }
    for (int i = 0; i < m; ++i) {
      const auto row = t.sorted_row(i);
      ASSERT_EQ(row.size(), first_rows[static_cast<std::size_t>(i)].size());
      for (std::size_t j = 0; j < row.size(); ++j) {
        EXPECT_EQ(row[j], first_rows[static_cast<std::size_t>(i)][j])
            << "variant=" << static_cast<int>(v) << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(EdgeTileDeferred, MatchesOracleBothPrecisions) {
  for (Variant v : kExplicitVariants) {
    check_double(21, 387, 13, 256, v, 0xDEF2);
    check_float(21, 387, 13, 256, v, 0xDEF3);
  }
  // The whole row in one panel: a single batched merge per row.
  check_double(21, 387, 13, 256, Variant::kVar5, 0xDEF2, 388);
  check_float(21, 387, 13, 256, Variant::kVar5, 0xDEF3, 388);
}

// k = 1 and small-k accepts take a dedicated path inside sel_insert
// (two stores / sorted-row replacement); Var#5 reaches the same heaps
// through the buffered per-panel scan. Bitwise identity between the two on
// an off-grid shape pins the fast paths to the reference schedule.
TEST(EdgeTileSmallK, FusedMatchesBufferedBitwise) {
  const int m = 27, n = 59, d = 21;
  const PointTable X = make_uniform(d, m + n, 0x5A11);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  for (int k : {1, 2, 3, 4}) {
    NeighborTable fused(m, k);
    knn_kernel(X, q, r, fused, edge_config(Variant::kVar1));
    NeighborTable buffered(m, k);
    knn_kernel(X, q, r, buffered, edge_config(Variant::kVar5));
    for (int i = 0; i < m; ++i) {
      const auto a = fused.sorted_row(i);
      const auto b = buffered.sorted_row(i);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t j = 0; j < a.size(); ++j) {
        EXPECT_EQ(a[j], b[j]) << "k=" << k << " i=" << i << " j=" << j;
      }
    }
  }
}

// Degenerate-but-legal geometries around the k = 1 path: self-search must
// return the point itself with (near-)zero distance even when the tail
// masking trims every tile.
TEST(EdgeTileSmallK, SelfSearchKOne) {
  const int n = 23, d = 9;  // both off-grid
  const PointTable X = make_uniform(d, n, 0x5E1F);
  const auto all = iota_ids(n);
  for (Variant v : kExplicitVariants) {
    NeighborTable t(n, 1);
    knn_kernel(X, all, all, t, edge_config(v));
    for (int i = 0; i < n; ++i) {
      const auto row = t.sorted_row(i);
      ASSERT_EQ(row.size(), 1u);
      EXPECT_EQ(row[0].second, i) << "variant=" << static_cast<int>(v);
      EXPECT_NEAR(row[0].first, 0.0, 1e-9);
    }
  }
}

// Default (machine-derived) blocking exercises the real m_r/n_r/d_c of the
// dispatched kernel — one deep-d shape crosses the depth blocking at least
// once at full scale and leaves ragged tails at every level.
TEST(EdgeTileDefaultBlocking, OffGridShapeMatchesOracle) {
  for (Variant v : kExplicitVariants) {
    const int m = 67, n = 83, d = 231, k = 5;
    const PointTable X = make_uniform(d, m + n, 0xDB10);
    const auto q = iota_ids(m);
    const auto r = iota_ids(n, m);
    KnnConfig cfg;
    cfg.variant = v;
    NeighborTable t(m, k);
    knn_kernel(X, q, r, t, cfg);
    const auto expect = test::brute_force_knn(X, q, r, k);
    for (int i = 0; i < m; ++i) {
      const auto row = t.sorted_row(i);
      ASSERT_EQ(row.size(), expect[static_cast<std::size_t>(i)].size());
      for (std::size_t j = 0; j < row.size(); ++j) {
        EXPECT_NEAR(row[j].first, expect[static_cast<std::size_t>(i)][j].first,
                    1e-9)
            << "variant=" << static_cast<int>(v) << " i=" << i << " j=" << j;
      }
    }
  }
}

}  // namespace
}  // namespace gsknn
