// Reference-side parallel scheme (§2.5 footnote): private heaps + merge
// must be invisible in the results.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

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

TEST(ParallelRefs, MatchesSequentialKernel) {
  const int m = 25, n = 300, d = 12, k = 7;
  const PointTable X = make_uniform(d, m + n, 0x9A11);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  for (int threads : {1, 2, 4, 7}) {
    KnnConfig cfg;
    cfg.threads = threads;
    NeighborTable par(m, k);
    knn_kernel_parallel_refs(X, q, r, par, cfg);
    const auto expect = test::brute_force_knn(X, q, r, k);
    for (int i = 0; i < m; ++i) {
      const auto row = par.sorted_row(i);
      ASSERT_EQ(row.size(), expect[static_cast<std::size_t>(i)].size())
          << "threads " << threads << " row " << i;
      for (std::size_t j = 0; j < row.size(); ++j) {
        EXPECT_NEAR(row[j].first, expect[static_cast<std::size_t>(i)][j].first,
                    1e-10);
      }
    }
  }
}

TEST(ParallelRefs, RefinesExistingLists) {
  const int m = 10, n = 200, d = 8, k = 5;
  const PointTable X = make_uniform(d, m + n, 0x9A12);
  const auto q = iota_ids(m);
  const auto all_r = iota_ids(n, m);
  const std::vector<int> r1(all_r.begin(), all_r.begin() + 100);
  const std::vector<int> r2(all_r.begin() + 100, all_r.end());

  KnnConfig cfg;
  cfg.threads = 4;
  NeighborTable t(m, k);
  knn_kernel_parallel_refs(X, q, r1, t, cfg);
  knn_kernel_parallel_refs(X, q, r2, t, cfg);

  const auto expect = test::brute_force_knn(X, q, all_r, k);
  for (int i = 0; i < m; ++i) {
    const auto row = t.sorted_row(i);
    ASSERT_EQ(row.size(), 5u);
    for (std::size_t j = 0; j < row.size(); ++j) {
      EXPECT_NEAR(row[j].first, expect[static_cast<std::size_t>(i)][j].first,
                  1e-10);
    }
  }
}

TEST(ParallelRefs, DedupAcrossSlices) {
  // Each reference appears twice, split so duplicates land in different
  // slices — the merge must not double-insert.
  const int m = 8, n_unique = 60, d = 6, k = 6;
  const PointTable X = make_uniform(d, m + n_unique, 0x9A13);
  const auto q = iota_ids(m);
  std::vector<int> r;
  for (int rep = 0; rep < 2; ++rep) {
    for (int j = 0; j < n_unique; ++j) r.push_back(m + j);
  }
  KnnConfig cfg;
  cfg.threads = 4;
  cfg.dedup = true;
  NeighborTable t(m, k);
  t.enable_dedup_index();
  knn_kernel_parallel_refs(X, q, r, t, cfg);
  const auto expect = test::brute_force_knn(X, q, iota_ids(n_unique, m), k);
  for (int i = 0; i < m; ++i) {
    const auto row = t.sorted_row(i);
    ASSERT_EQ(row.size(), static_cast<std::size_t>(k));
    std::vector<int> ids;
    for (const auto& [dist, id] : row) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
    for (std::size_t j = 0; j < row.size(); ++j) {
      EXPECT_NEAR(row[j].first, expect[static_cast<std::size_t>(i)][j].first,
                  1e-10);
    }
  }
}

TEST(ParallelRefs, ResultRowMapping) {
  const int n = 120;
  const PointTable X = make_uniform(5, n, 0x9A14);
  const std::vector<int> q = {3, 50, 99};
  const auto r = iota_ids(n);
  KnnConfig cfg;
  cfg.threads = 3;
  NeighborTable global(n, 4);
  knn_kernel_parallel_refs(X, q, r, global, cfg, q);
  const auto expect = test::brute_force_knn(X, q, r, 4);
  for (std::size_t i = 0; i < q.size(); ++i) {
    const auto row = global.sorted_row(q[i]);
    ASSERT_EQ(row.size(), 4u);
    for (std::size_t j = 0; j < row.size(); ++j) {
      EXPECT_NEAR(row[j].first, expect[i][j].first, 1e-10);
    }
  }
  EXPECT_TRUE(global.sorted_row(0).empty());
}

TEST(ParallelRefs, TinyReferenceSetFallsBack) {
  const PointTable X = make_uniform(4, 12, 0x9A15);
  const auto q = iota_ids(4);
  const std::vector<int> r = {4, 5, 6};
  KnnConfig cfg;
  cfg.threads = 8;  // n < 2*threads → sequential path
  NeighborTable t(4, 2);
  knn_kernel_parallel_refs(X, q, r, t, cfg);
  const auto expect = test::brute_force_knn(X, q, r, 2);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(t.sorted_row(i).size(), expect[static_cast<std::size_t>(i)].size());
  }
}

#if defined(_OPENMP)
// Regression: the reference slices are cut for resolve_threads(cfg.threads)
// workers, but a call inside an enclosing parallel region with nesting
// capped gets a team of one. The absent workers' slices used to be skipped:
// kOk, every row flagged complete, and each row missing most candidates.
TEST(ParallelRefs, ShrunkenTeamStillSearchesEverySlice) {
  const int m = 64, n = 400, k = 4;
  const PointTable X = make_uniform(8, m + n, 0x9A16);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  KnnConfig cfg;
  cfg.threads = 4;
  NeighborTable want(m, k), got(m, k);
  knn_kernel(X, q, r, want, cfg);
  const int saved_levels = omp_get_max_active_levels();
  omp_set_max_active_levels(1);  // the nested region below gets a team of 1
  Status s = Status::kInternal;
#pragma omp parallel num_threads(2)
  {
#pragma omp single
    { s = knn_kernel_parallel_refs_status(X, q, r, got, cfg); }
  }
  omp_set_max_active_levels(saved_levels);
  ASSERT_EQ(s, Status::kOk);
  for (int i = 0; i < m; ++i) {
    EXPECT_EQ(got.sorted_row(i), want.sorted_row(i)) << "row " << i;
  }
}
#endif

}  // namespace
}  // namespace gsknn
