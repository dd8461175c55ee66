// Degenerate-input semantics (docs/CONTRACT.md): empty index lists, d == 0,
// k > n, duplicate ids, non-finite coordinates, zero-norm cosine points and
// exact ties must behave identically — and deterministically — across every
// variant, thread count and precision.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "gsknn/core/knn.hpp"
#include "gsknn/data/generators.hpp"
#include "gsknn/data/point_table.hpp"
#include "test_util.hpp"

namespace {

using gsknn::KnnConfig;
using gsknn::NeighborTable;
using gsknn::NeighborTableF;
using gsknn::Norm;
using gsknn::PointTable;
using gsknn::Status;
using gsknn::StatusError;
using gsknn::Variant;

using gsknn::test::kExplicitVariants;

const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

std::vector<int> iota_vec(int count, int start = 0) {
  std::vector<int> v(static_cast<std::size_t>(count));
  std::iota(v.begin(), v.end(), start);
  return v;
}

/// Run the kernel and collect every row in ascending (distance, id) order
/// (non-finite slots dropped by sorted_row, per the contract).
template <typename T>
std::vector<std::vector<std::pair<T, int>>> run_rows(
    const gsknn::PointTableT<T>& X, const std::vector<int>& q,
    const std::vector<int>& r, int k, const KnnConfig& cfg,
    bool dedup_index = false) {
  gsknn::NeighborTableT<T> res(static_cast<int>(q.size()), k);
  if (dedup_index) res.enable_dedup_index();
  knn_kernel(X, q, r, res, cfg);
  std::vector<std::vector<std::pair<T, int>>> rows;
  rows.reserve(q.size());
  for (int i = 0; i < static_cast<int>(q.size()); ++i) {
    rows.push_back(res.sorted_row(i));
  }
  return rows;
}

TEST(Degenerate, EmptyIndexListsLeaveResultUntouched) {
  const PointTable X = gsknn::make_uniform(6, 40, 0xE17);
  const std::vector<int> some = iota_vec(10);
  const std::vector<int> none;
  for (Variant v : kExplicitVariants) {
    KnnConfig cfg;
    cfg.variant = v;
    NeighborTable res(10, 3);
    EXPECT_NO_THROW(knn_kernel(X, none, some, res, cfg));
    EXPECT_NO_THROW(knn_kernel(X, some, none, res, cfg));
    EXPECT_NO_THROW(knn_kernel(X, none, none, res, cfg));
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(res.sorted_row(i).empty());
    }
  }
}

TEST(Degenerate, ZeroDimAllNormsBothPrecisions) {
  PointTable X(0, 20);
  X.compute_norms();
  const gsknn::PointTableF Xf = gsknn::to_float(X);
  const std::vector<int> q = iota_vec(5);
  const std::vector<int> r = iota_vec(20);
  for (Norm norm : {Norm::kL2Sq, Norm::kL1, Norm::kLInf, Norm::kLp,
                    Norm::kCosine}) {
    const double expect = (norm == Norm::kCosine) ? 1.0 : 0.0;
    KnnConfig cfg;
    cfg.norm = norm;
    cfg.p = 3.0;
    const auto rows = run_rows(X, q, r, 4, cfg);
    const auto rows_f = run_rows(Xf, q, r, 4, cfg);
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(rows[static_cast<std::size_t>(i)].size(), 4u);
      ASSERT_EQ(rows_f[static_cast<std::size_t>(i)].size(), 4u);
      for (int j = 0; j < 4; ++j) {
        const auto& [dist, id] = rows[static_cast<std::size_t>(i)]
                                     [static_cast<std::size_t>(j)];
        // All distances equal -> ties resolve to the lowest ids, in order.
        EXPECT_EQ(dist, expect);
        EXPECT_EQ(id, j);
        EXPECT_EQ(rows_f[static_cast<std::size_t>(i)]
                        [static_cast<std::size_t>(j)].second, j);
      }
    }
  }
}

TEST(Degenerate, KGreaterThanNKeepsSentinelsAllVariants) {
  const PointTable X = gsknn::make_uniform(7, 12, 0x51D);
  const std::vector<int> q = iota_vec(4);
  const std::vector<int> r = iota_vec(5, 4);  // n = 5 < k = 9
  const auto expect = gsknn::test::brute_force_knn(X, q, r, 9);
  for (Variant v : kExplicitVariants) {
    for (int threads : {1, 4}) {
      KnnConfig cfg;
      cfg.variant = v;
      cfg.threads = threads;
      NeighborTable res(4, 9);
      knn_kernel(X, q, r, res, cfg);
      for (int i = 0; i < 4; ++i) {
        const auto row = res.sorted_row(i);
        ASSERT_EQ(row.size(), 5u) << "variant " << static_cast<int>(v);
        for (std::size_t j = 0; j < row.size(); ++j) {
          EXPECT_NEAR(row[j].first,
                      expect[static_cast<std::size_t>(i)][j].first, 1e-10);
          EXPECT_EQ(row[j].second,
                    expect[static_cast<std::size_t>(i)][j].second);
        }
        // Unfilled physical slots must still be (+inf, -1) sentinels.
        const double* dists = res.row_dists(i);
        const int* ids = res.row_ids(i);
        int sentinels = 0;
        for (int s = 0; s < res.row_stride(); ++s) {
          if (ids[s] == -1) {
            EXPECT_TRUE(std::isinf(dists[s]) && dists[s] > 0);
            ++sentinels;
          }
        }
        EXPECT_EQ(sentinels, res.row_stride() - 5);
      }
    }
  }
}

TEST(Degenerate, NaNReferencesNeverEnterAnyVariantAnyNorm) {
  PointTable X = gsknn::make_uniform(9, 48, 0xBAD);
  // Poison four reference points (one coordinate each) and one entirely.
  for (int bad : {11, 17, 23, 29}) X.at(bad % 9, bad) = kNaN;
  for (int p = 0; p < 9; ++p) X.at(p, 40) = kNaN;
  X.compute_norms();
  const std::vector<int> q = iota_vec(8);
  std::vector<int> r = iota_vec(40, 8);  // includes all poisoned points

  std::vector<int> clean;
  for (int id : r) {
    if (id != 11 && id != 17 && id != 23 && id != 29 && id != 40) {
      clean.push_back(id);
    }
  }
  for (Norm norm : {Norm::kL2Sq, Norm::kL1, Norm::kLInf, Norm::kLp,
                    Norm::kCosine}) {
    const auto expect =
        gsknn::test::brute_force_knn(X, q, clean, 6, norm, 3.0);
    for (Variant v : kExplicitVariants) {
      KnnConfig cfg;
      cfg.norm = norm;
      cfg.p = 3.0;
      cfg.variant = v;
      const auto rows = run_rows(X, q, r, 6, cfg);
      for (int i = 0; i < 8; ++i) {
        const auto& row = rows[static_cast<std::size_t>(i)];
        ASSERT_EQ(row.size(), 6u)
            << "norm " << static_cast<int>(norm) << " variant "
            << static_cast<int>(v);
        for (std::size_t j = 0; j < row.size(); ++j) {
          EXPECT_NE(row[j].second, 11);
          EXPECT_NE(row[j].second, 17);
          EXPECT_NE(row[j].second, 23);
          EXPECT_NE(row[j].second, 29);
          EXPECT_NE(row[j].second, 40);
          EXPECT_NEAR(row[j].first,
                      expect[static_cast<std::size_t>(i)][j].first, 1e-9)
              << "norm " << static_cast<int>(norm) << " variant "
              << static_cast<int>(v);
        }
      }
    }
  }
}

TEST(Degenerate, NaNQueryYieldsEmptyRow) {
  PointTable X = gsknn::make_uniform(5, 30, 0xF00);
  for (int p = 0; p < 5; ++p) X.at(p, 2) = kNaN;
  X.at(3, 4) = kNaN;  // single poisoned coordinate
  X.compute_norms();
  const std::vector<int> q = {0, 2, 4, 6};
  const std::vector<int> r = iota_vec(20, 10);
  for (Norm norm : {Norm::kL2Sq, Norm::kL1, Norm::kLInf, Norm::kCosine}) {
    for (Variant v : kExplicitVariants) {
      KnnConfig cfg;
      cfg.norm = norm;
      cfg.variant = v;
      const auto rows = run_rows(X, q, r, 3, cfg);
      EXPECT_EQ(rows[0].size(), 3u);  // clean query
      EXPECT_TRUE(rows[1].empty()) << "norm " << static_cast<int>(norm)
                                   << " variant " << static_cast<int>(v);
      EXPECT_TRUE(rows[2].empty());
      EXPECT_EQ(rows[3].size(), 3u);
    }
  }
}

TEST(Degenerate, InfReferencesNeverEnter) {
  PointTable X = gsknn::make_uniform(6, 32, 0x1F0);
  X.at(1, 12) = kInf;
  X.at(4, 20) = -kInf;
  X.compute_norms();
  const std::vector<int> q = iota_vec(6);
  const std::vector<int> r = iota_vec(26, 6);
  for (Norm norm : {Norm::kL2Sq, Norm::kL1, Norm::kLInf}) {
    for (Variant v : kExplicitVariants) {
      KnnConfig cfg;
      cfg.norm = norm;
      cfg.variant = v;
      const auto rows = run_rows(X, q, r, 5, cfg);
      for (const auto& row : rows) {
        for (const auto& [dist, id] : row) {
          EXPECT_TRUE(std::isfinite(dist));
          EXPECT_NE(id, 12);
          EXPECT_NE(id, 20);
        }
      }
    }
  }
}

TEST(Degenerate, DuplicateQueryIdsGetIdenticalRows) {
  const PointTable X = gsknn::make_uniform(8, 50, 0xD0B);
  const std::vector<int> q = {7, 7, 13, 7};
  const std::vector<int> r = iota_vec(30, 20);
  for (Variant v : kExplicitVariants) {
    KnnConfig cfg;
    cfg.variant = v;
    const auto rows = run_rows(X, q, r, 4, cfg);
    EXPECT_EQ(rows[0], rows[1]);
    EXPECT_EQ(rows[0], rows[3]);
    EXPECT_NE(rows[0], rows[2]);
  }
}

TEST(Degenerate, DuplicateReferenceIdsWithDedup) {
  const PointTable X = gsknn::make_uniform(6, 40, 0xDED);
  const std::vector<int> q = iota_vec(5);
  // Every reference offered three times.
  std::vector<int> r;
  for (int rep = 0; rep < 3; ++rep) {
    for (int id = 10; id < 30; ++id) r.push_back(id);
  }
  const std::vector<int> unique = iota_vec(20, 10);
  const auto expect = gsknn::test::brute_force_knn(X, q, unique, 6);
  for (Variant v : kExplicitVariants) {
    // Both dedup paths: the O(1) id-set index and the O(k) row scan.
    for (bool index : {true, false}) {
      KnnConfig cfg;
      cfg.variant = v;
      cfg.dedup = true;
      const auto rows = run_rows(X, q, r, 6, cfg, index);
      for (int i = 0; i < 5; ++i) {
        const auto& row = rows[static_cast<std::size_t>(i)];
        ASSERT_EQ(row.size(), 6u);
        for (std::size_t j = 0; j < row.size(); ++j) {
          EXPECT_EQ(row[j].second,
                    expect[static_cast<std::size_t>(i)][j].second)
              << "variant " << static_cast<int>(v) << " index " << index;
          for (std::size_t l = j + 1; l < row.size(); ++l) {
            EXPECT_NE(row[j].second, row[l].second);  // no id twice
          }
        }
      }
    }
  }
}

TEST(Degenerate, CosineZeroNormPointsGetDistanceOne) {
  PointTable X = gsknn::make_uniform(5, 24, 0xC05);
  for (int p = 0; p < 5; ++p) {
    X.at(p, 3) = 0.0;   // zero query
    X.at(p, 15) = 0.0;  // zero reference
  }
  X.compute_norms();
  const std::vector<int> q = {0, 3};
  const std::vector<int> r = iota_vec(14, 10);
  for (Variant v : kExplicitVariants) {
    KnnConfig cfg;
    cfg.norm = Norm::kCosine;
    cfg.variant = v;
    const auto rows = run_rows(X, q, r, 14, cfg);
    // Zero reference point 15 appears with distance exactly 1 for any query.
    bool saw_zero_ref = false;
    for (const auto& [dist, id] : rows[0]) {
      if (id == 15) {
        saw_zero_ref = true;
        EXPECT_EQ(dist, 1.0);
      }
    }
    EXPECT_TRUE(saw_zero_ref);
    // Zero query: every distance is exactly 1, ties resolve to lowest ids.
    ASSERT_EQ(rows[1].size(), 14u);
    for (std::size_t j = 0; j < rows[1].size(); ++j) {
      EXPECT_EQ(rows[1][j].first, 1.0);
      EXPECT_EQ(rows[1][j].second, 10 + static_cast<int>(j));
    }
  }
}

TEST(Degenerate, ExactTiesPickLowestIdsEverywhere) {
  // 30 copies of the same point: every distance ties at 0, so the contract
  // demands the k lowest reference ids — from every variant, thread count
  // and precision, bitwise.
  PointTable X(4, 30);
  for (int i = 0; i < 30; ++i) {
    for (int p = 0; p < 4; ++p) X.at(p, i) = 1.5 + p;
  }
  X.compute_norms();
  const gsknn::PointTableF Xf = gsknn::to_float(X);
  const std::vector<int> q = iota_vec(6);
  const std::vector<int> r = iota_vec(24, 6);
  for (Norm norm : {Norm::kL2Sq, Norm::kL1, Norm::kLInf, Norm::kCosine}) {
    for (Variant v : kExplicitVariants) {
      for (int threads : {1, 4}) {
        KnnConfig cfg;
        cfg.norm = norm;
        cfg.variant = v;
        cfg.threads = threads;
        const auto rows = run_rows(X, q, r, 5, cfg);
        const auto rows_f = run_rows(Xf, q, r, 5, cfg);
        for (const auto& row : rows) {
          ASSERT_EQ(row.size(), 5u);
          for (int j = 0; j < 5; ++j) {
            EXPECT_EQ(row[static_cast<std::size_t>(j)].second, 6 + j)
                << "norm " << static_cast<int>(norm) << " variant "
                << static_cast<int>(v) << " threads " << threads;
          }
        }
        for (const auto& row : rows_f) {
          ASSERT_EQ(row.size(), 5u);
          for (int j = 0; j < 5; ++j) {
            EXPECT_EQ(row[static_cast<std::size_t>(j)].second, 6 + j);
          }
        }
      }
    }
  }
}

TEST(Degenerate, StatusErrorsCarryCodesAndStayCatchable) {
  const PointTable X = gsknn::make_uniform(4, 10, 0x57A);
  const std::vector<int> q = {0, 1};
  const std::vector<int> r = {2, 3, 4};
  NeighborTable res(2, 2);

  // Out-of-range reference index -> kBadIndex.
  try {
    const std::vector<int> bad = {2, 10};
    knn_kernel(X, q, bad, res, {});
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kBadIndex);
    EXPECT_STREQ(gsknn::status_name(e.status()), "bad_index");
  }

  // Negative query index -> kBadIndex.
  {
    const std::vector<int> bad = {-1, 0};
    EXPECT_THROW(knn_kernel(X, bad, r, res, {}), StatusError);
  }

  // Duplicate result rows -> kInvalidArgument.
  try {
    const std::vector<int> rows = {1, 1};
    knn_kernel(X, q, r, res, {}, rows);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kInvalidArgument);
  }

  // Non-positive lp exponent -> kBadConfig.
  try {
    KnnConfig cfg;
    cfg.norm = Norm::kLp;
    cfg.p = 0.0;
    knn_kernel(X, q, r, res, cfg);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kBadConfig);
  }

  // Negative thread count -> kBadConfig.
  try {
    KnnConfig cfg;
    cfg.threads = -2;
    knn_kernel(X, q, r, res, cfg);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kBadConfig);
  }

  // Opt-in finite check -> kNonFinite on poisoned coordinates.
  {
    PointTable bad = gsknn::make_uniform(4, 10, 0x57B);
    bad.at(2, 3) = kNaN;
    bad.compute_norms();
    try {
      KnnConfig cfg;
      cfg.validate = true;
      knn_kernel(bad, q, r, res, cfg);
      FAIL() << "expected StatusError";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status(), Status::kNonFinite);
    }
  }

  // StatusError derives from std::invalid_argument, so pre-existing callers
  // that catch the standard type keep working.
  {
    const std::vector<int> bad = {99};
    EXPECT_THROW(knn_kernel(X, bad, r, res, {}), std::invalid_argument);
  }

  // validate_knn_args reports without throwing.
  {
    std::string msg;
    const std::vector<int> bad = {2, 10};
    EXPECT_EQ(gsknn::validate_knn_args(X, q, bad, res, KnnConfig{}, {}, &msg),
              Status::kBadIndex);
    EXPECT_FALSE(msg.empty());
    EXPECT_EQ(gsknn::validate_knn_args(X, q, r, res, KnnConfig{}, {}, &msg),
              Status::kOk);
  }
}

TEST(Degenerate, ParallelRefsMatchesKernelOnDegenerateShapes) {
  PointTable X = gsknn::make_uniform(6, 60, 0xAB5);
  X.at(2, 30) = kNaN;
  X.compute_norms();
  const std::vector<int> q = iota_vec(6);
  const std::vector<int> r = iota_vec(50, 8);
  KnnConfig cfg;
  cfg.threads = 4;
  NeighborTable a(6, 70);  // k > n
  NeighborTable b(6, 70);
  knn_kernel(X, q, r, a, cfg);
  knn_kernel_parallel_refs(X, q, r, b, cfg);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(a.sorted_row(i), b.sorted_row(i));
  }
}

}  // namespace
