// Property-based randomized sweep: random shapes, random index subsets,
// random variant/norm/threads — every draw must match the brute-force
// oracle. This is the broad net behind the hand-picked edge cases of
// tests/core.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gsknn/common/rng.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/data/generators.hpp"
#include "test_util.hpp"

namespace gsknn {
namespace {

struct FuzzCase {
  int m, n, d, k, threads;
  Variant variant;
  Norm norm;
  bool dedup;
  std::uint64_t seed;
};

FuzzCase draw_case(Xoshiro256& rng) {
  static const Norm norms[] = {Norm::kL2Sq, Norm::kL1, Norm::kLInf,
                               Norm::kCosine};
  FuzzCase c;
  c.m = 1 + static_cast<int>(rng.below(90));
  c.n = 1 + static_cast<int>(rng.below(150));
  c.d = 1 + static_cast<int>(rng.below(70));
  c.k = 1 + static_cast<int>(rng.below(24));
  c.threads = 1 + static_cast<int>(rng.below(3));
  c.variant = test::draw_variant(rng);
  c.norm = norms[rng.below(4)];
  c.dedup = rng.below(4) == 0;
  c.seed = rng();
  return c;
}

TEST(Fuzz, RandomShapesMatchOracle) {
  Xoshiro256 rng(0xF0220);
  for (int trial = 0; trial < 60; ++trial) {
    const FuzzCase c = draw_case(rng);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << " m=" << c.m << " n=" << c.n
                 << " d=" << c.d << " k=" << c.k
                 << " variant=" << static_cast<int>(c.variant)
                 << " norm=" << static_cast<int>(c.norm)
                 << " dedup=" << c.dedup << " threads=" << c.threads);

    const PointTable X = make_uniform(c.d, c.m + c.n, c.seed);
    Xoshiro256 pick(c.seed ^ 0x51u);
    // Scattered query/reference subsets; references may repeat under dedup.
    std::vector<int> q, r;
    for (int i = 0; i < c.m; ++i) {
      q.push_back(static_cast<int>(pick.below(static_cast<std::uint64_t>(c.m + c.n))));
    }
    for (int j = 0; j < c.n; ++j) {
      r.push_back(static_cast<int>(pick.below(static_cast<std::uint64_t>(c.m + c.n))));
    }
    std::vector<int> r_unique = r;
    std::sort(r_unique.begin(), r_unique.end());
    r_unique.erase(std::unique(r_unique.begin(), r_unique.end()),
                   r_unique.end());

    KnnConfig cfg;
    cfg.variant = c.variant;
    cfg.norm = c.norm;
    cfg.threads = c.threads;
    cfg.dedup = c.dedup;
    // Tiny blocking half the time, defaults otherwise.
    if (pick.below(2) == 0) {
      cfg.blocking = BlockingParams{8, 4, 8, 16, 12};
    }

    NeighborTable t(c.m, c.k);
    if (c.dedup) t.enable_dedup_index();
    knn_kernel(X, q, r, t, cfg);
    ASSERT_TRUE(t.all_rows_are_heaps());

    // Oracle over the deduplicated reference multiset (kernel semantics:
    // without dedup, duplicate ids may legitimately occupy several slots).
    const auto& oracle_refs = c.dedup ? r_unique : r;
    const auto expect =
        test::brute_force_knn(X, q, oracle_refs, c.k, c.norm, cfg.p);
    for (int i = 0; i < c.m; ++i) {
      const auto row = t.sorted_row(i);
      // Without dedup, duplicates make sizes differ only when k > #unique;
      // compare distances up to the common length.
      const std::size_t common =
          std::min(row.size(), expect[static_cast<std::size_t>(i)].size());
      for (std::size_t j = 0; j < common; ++j) {
        ASSERT_NEAR(row[j].first, expect[static_cast<std::size_t>(i)][j].first,
                    1e-9 * std::max(1.0, expect[static_cast<std::size_t>(i)][j].first))
            << "row " << i << " j " << j;
      }
      if (c.dedup) {
        ASSERT_EQ(row.size(), expect[static_cast<std::size_t>(i)].size());
        std::vector<int> ids;
        for (const auto& [dist, id] : row) ids.push_back(id);
        std::sort(ids.begin(), ids.end());
        ASSERT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
      }
    }
  }
}

TEST(Fuzz, BaselinesMatchKernelOnRandomShapes) {
  Xoshiro256 rng(0xF0221);
  for (int trial = 0; trial < 20; ++trial) {
    FuzzCase c = draw_case(rng);
    c.norm = Norm::kL2Sq;  // gemm baseline is ℓ2/cosine only
    c.dedup = false;
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " m=" << c.m
                                      << " n=" << c.n << " d=" << c.d
                                      << " k=" << c.k);
    const PointTable X = make_uniform(c.d, c.m + c.n, c.seed);
    std::vector<int> q, r;
    for (int i = 0; i < c.m; ++i) q.push_back(i);
    for (int j = 0; j < c.n; ++j) r.push_back(c.m + j);

    KnnConfig cfg;
    cfg.variant = c.variant;
    NeighborTable a(c.m, c.k), b(c.m, c.k), s(c.m, c.k);
    knn_kernel(X, q, r, a, cfg);
    knn_gemm_baseline(X, q, r, b, {});
    knn_single_loop_baseline(X, q, r, s, {});
    for (int i = 0; i < c.m; ++i) {
      const auto ra = a.sorted_row(i);
      const auto rb = b.sorted_row(i);
      const auto rs = s.sorted_row(i);
      ASSERT_EQ(ra.size(), rb.size());
      ASSERT_EQ(ra.size(), rs.size());
      for (std::size_t j = 0; j < ra.size(); ++j) {
        ASSERT_NEAR(ra[j].first, rb[j].first, 1e-9);
        ASSERT_NEAR(ra[j].first, rs[j].first, 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace gsknn
