// The Var#5 row merge (row_select) against a per-candidate heap scan, the
// selection it replaced: the sorted rows must be bitwise identical and the
// row must still be a valid heap afterwards, in both precisions, on the
// inputs where a merge could plausibly diverge from a
// scan — ties at the k-th distance, non-finite candidates, warm rows, short
// rows, k > n, a sampled bound that undershoots, and dedup rows (with and
// without a RowIdSet) that are offered ids they hold, held before, or see
// twice in one call. Every merge's counters must add up:
// pushes + rejects == candidates.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "../../src/core/micro.hpp"

namespace gsknn {
namespace {

using core::kBatchSelectMinK;
using core::row_select;
using core::SelPair;
using telemetry::Counter;

template <typename T>
struct Rows {
  std::vector<T> cand;
  std::vector<int> ids;
};

/// Candidate row of `len` distances drawn from [0, range) (small ranges
/// make exact ties), ids a shuffled permutation offset by `id0`.
template <typename T>
Rows<T> make_row(int len, int range, unsigned seed, int id0 = 0) {
  std::mt19937 g(seed);
  Rows<T> r;
  r.cand.resize(static_cast<std::size_t>(len));
  r.ids.resize(static_cast<std::size_t>(len));
  std::uniform_int_distribution<int> u(0, range - 1);
  for (auto& d : r.cand) d = static_cast<T>(u(g)) / T(8);
  std::iota(r.ids.begin(), r.ids.end(), id0);
  std::shuffle(r.ids.begin(), r.ids.end(), g);
  return r;
}

/// The reference: offer each candidate in turn to the row through Var#1's
/// in-tile accept and insert (the per-candidate scan row_select ran before
/// it merged every row).
template <typename T>
void scan_select(const Rows<T>& c, NeighborTableT<T>& t, bool dedup) {
  core::SelectCtxT<T> ctx;
  ctx.hd[0] = t.row_dists(0);
  ctx.hi[0] = t.row_ids(0);
  ctx.hset[0] = t.row_idset(0);
  ctx.k = t.k();
  ctx.row_stride = t.row_stride();
  ctx.dedup = dedup;
  for (std::size_t j = 0; j < c.cand.size(); ++j) {
    if (core::sel_accepts(c.cand[j], c.ids[j], ctx.hd[0], ctx.hi[0])) {
      core::sel_insert(ctx, 0, c.cand[j], c.ids[j]);
    }
  }
}

/// Runs every candidate row through two tables — the reference scan and
/// the merge — and checks they agree after each call. `index` gives both
/// tables a RowIdSet.
template <typename T>
void expect_batch_matches_scan(int k, const std::vector<Rows<T>>& calls,
                               bool dedup = false, bool index = false) {
  NeighborTableT<T> scan(1, k);
  NeighborTableT<T> batch(1, k);
  if (index) {
    scan.enable_dedup_index();
    batch.enable_dedup_index();
  }
  std::size_t widest = 0;
  for (const auto& c : calls) widest = std::max(widest, c.cand.size());
  std::vector<SelPair<T>> scratch(widest + static_cast<std::size_t>(k));
  for (std::size_t call = 0; call < calls.size(); ++call) {
    const Rows<T>& c = calls[call];
    const int len = static_cast<int>(c.cand.size());
    scan_select(c, scan, dedup);
    telemetry::ThreadCounters tc;
    row_select(c.cand.data(), c.ids.data(), len, batch.row_dists(0),
               batch.row_ids(0), batch.row_idset(0), k, batch.row_stride(),
               dedup, scratch.data(), &tc);
    const auto want = scan.sorted_row(0);
    const auto got = batch.sorted_row(0);
    ASSERT_EQ(got.size(), want.size()) << "call " << call;
    for (std::size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(got[j], want[j]) << "call " << call << " slot " << j;
    }
    EXPECT_TRUE(heap::binary_is_heap(batch.row_dists(0), k))
        << "call " << call;
    // Sentinels fill exactly the slots no finite candidate reached.
    int sentinels = 0;
    for (int j = 0; j < k; ++j) {
      if (batch.row_ids(0)[j] == heap::kNoId) ++sentinels;
    }
    EXPECT_EQ(sentinels, k - static_cast<int>(got.size())) << "call " << call;
    const auto cnt = [&tc](Counter x) {
      return tc.counter[static_cast<int>(x)];
    };
    EXPECT_EQ(cnt(Counter::kCandidates), static_cast<std::uint64_t>(len));
    EXPECT_EQ(cnt(Counter::kHeapPushes) + cnt(Counter::kRootRejects),
              cnt(Counter::kCandidates))
        << "call " << call;
    if (dedup && index) {
      // The set holds at least every id the row does.
      for (const auto& e : got) {
        EXPECT_TRUE(batch.row_idset(0)->contains(e.second)) << e.second;
      }
    }
  }
}

template <typename T>
class RowSelectBatch : public ::testing::Test {};

using Scalars = ::testing::Types<double, float>;
TYPED_TEST_SUITE(RowSelectBatch, Scalars);

// Few distinct distances: the k-th entry sits inside a large tie group, so
// which ties survive is decided by id alone. 600 candidates take the plain
// batch; 4096 take the sampled bound, whose `<=` keeps the whole group.
TYPED_TEST(RowSelectBatch, TiesAtTheKthDistance) {
  using T = TypeParam;
  for (int len : {600, 4096}) {
    expect_batch_matches_scan<T>(kBatchSelectMinK,
                                 {make_row<T>(len, 12, 0x71E5)});
    expect_batch_matches_scan<T>(kBatchSelectMinK + 5,
                                 {make_row<T>(len, 3, 0x71E6)});
  }
}

// NaN and ±inf candidates never enter a row, and never disturb the sampled
// bound (non-finite samples read as +inf).
TYPED_TEST(RowSelectBatch, NonFiniteCandidates) {
  using T = TypeParam;
  const T kInf = std::numeric_limits<T>::infinity();
  for (int len : {700, 4096}) {
    Rows<T> r =
        make_row<T>(len, 1 << 20, 0x0F1 + static_cast<unsigned>(len));
    for (int j = 0; j < len; j += 3) {
      r.cand[static_cast<std::size_t>(j)] =
          (j % 9 == 0)   ? std::numeric_limits<T>::quiet_NaN()
          : (j % 9 == 3) ? kInf
                         : -kInf;
    }
    expect_batch_matches_scan<T>(kBatchSelectMinK, {r});
  }
}

// A second call into a filled row: the candidates mostly lose to the warm
// root, so only a handful survive to merge with the row's k entries. A
// third call with a new, better batch displaces most of the row.
TYPED_TEST(RowSelectBatch, WarmRootFewSurvivors) {
  using T = TypeParam;
  const int k = 512;
  Rows<T> cold = make_row<T>(4096, 1 << 16, 0x3A1);
  Rows<T> warm = make_row<T>(2048, 1 << 16, 0x3A2, 4096);
  for (auto& d : warm.cand) d += T(4096);  // all far beyond the root…
  for (int j = 0; j < 20; ++j) {            // …but for a handful
    warm.cand[static_cast<std::size_t>(j * 97)] = static_cast<T>(j);
  }
  Rows<T> better = make_row<T>(1024, 1 << 12, 0x3A3, 8192);
  for (auto& d : better.cand) d /= T(64);
  expect_batch_matches_scan<T>(k, {cold, warm, better});
}

// Warm survivors that only just beat the root: in the scan each insert
// lowers the root below the next (worse) survivor, which is then turned
// away; the merge must keep exactly the same entries.
TYPED_TEST(RowSelectBatch, WarmSurvivorsRecheckedAgainstLiveRoot) {
  using T = TypeParam;
  const int k = 512;
  Rows<T> fill;  // distances 0 .. k-1: the root is k - 1, then k - 2
  for (int j = 0; j < k; ++j) {
    fill.cand.push_back(static_cast<T>(j));
    fill.ids.push_back(j);
  }
  Rows<T> near;  // ascending in (k - 2, k - 1): each worse than the last
  for (int j = 0; j < 9; ++j) {
    near.cand.push_back(static_cast<T>(k - 2) + static_cast<T>(j + 1) / 10);
    near.ids.push_back(k + j);
  }
  expect_batch_matches_scan<T>(k, {fill, near});
}

// A warm row whose entries tie the sampled bound: new candidates at that
// distance with lower ids must still displace them, so the filter keeps
// candidates equal to the bound, not only those below it.
TYPED_TEST(RowSelectBatch, TiesAtTheSampledBound) {
  using T = TypeParam;
  const int k = 256, len = 4096;
  Rows<T> high;  // k entries at distance 1 with ids above every new one
  for (int j = 0; j < k; ++j) {
    high.cand.push_back(T(1));
    high.ids.push_back(len + j);
  }
  Rows<T> r = make_row<T>(len, 1, 0x7B);  // all distance 0 for now
  for (int j = 100; j < len; ++j) r.cand[static_cast<std::size_t>(j)] = T(1);
  expect_batch_matches_scan<T>(k, {high, r});
}

// Rows shorter than k (len < k, the k > n case): every finite candidate is
// kept and the remaining slots stay (+inf, -1) sentinels.
TYPED_TEST(RowSelectBatch, ShortRowsKeepSentinels) {
  using T = TypeParam;
  expect_batch_matches_scan<T>(300, {make_row<T>(37, 1 << 10, 0x5E1)});
  expect_batch_matches_scan<T>(kBatchSelectMinK,
                               {make_row<T>(100, 1 << 10, 0x5E2),
                                make_row<T>(90, 1 << 10, 0x5E3, 100)});
  expect_batch_matches_scan<T>(kBatchSelectMinK, {Rows<T>{}});  // len 0
}

// The sampled bound reads every 16th candidate of a 4096-long row. Making
// exactly those the small ones drives the bound below the true k-th
// distance; the row must notice and filter again on the root alone.
TYPED_TEST(RowSelectBatch, UndershotSampleFallsBack) {
  using T = TypeParam;
  const int len = 4096, k = 512;
  Rows<T> r = make_row<T>(len, 1 << 16, 0xB0D);
  for (int j = 0; j < len; ++j) {
    r.cand[static_cast<std::size_t>(j)] =
        (j % 16 == 0) ? static_cast<T>(j) / T(4096)
                      : T(2) + r.cand[static_cast<std::size_t>(j)];
  }
  expect_batch_matches_scan<T>(k, {r});
}

// ---- dedup rows --------------------------------------------------------
//
// A query's distance to a reference is one number however often the
// reference is offered, so every dedup case draws a call's distances from
// one per-id function (few distinct values, so ties are common).

template <typename T>
T dist_of(int id) {
  return static_cast<T>((static_cast<unsigned>(id) * 2654435761u >> 7) % 97) /
         T(4);
}

template <typename T>
Rows<T> with_ids(std::vector<int> ids) {
  Rows<T> r;
  for (int id : ids) r.cand.push_back(dist_of<T>(id));
  r.ids = std::move(ids);
  return r;
}

/// `len` ids drawn with replacement from [id0, id0 + span): ids repeat
/// within the call.
std::vector<int> draw_ids(int len, int id0, int span, unsigned seed) {
  std::mt19937 g(seed);
  std::uniform_int_distribution<int> u(id0, id0 + span - 1);
  std::vector<int> v(static_cast<std::size_t>(len));
  for (int& x : v) x = u(g);
  return v;
}

constexpr int kDedupKs[] = {1, 4, 16, 255, 256, 512};

/// Every dedup case at every k, with and without a RowIdSet.
template <typename T, typename Make>
void for_each_dedup_row(Make make) {
  for (int k : kDedupKs) {
    for (bool index : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "k=" << k << " index=" << index);
      expect_batch_matches_scan<T>(k, make(k), /*dedup=*/true, index);
    }
  }
}

// One id repeated within a call, on a cold row: once with len < 4k (no
// sampled bound) and once long enough for the sampled bound.
TYPED_TEST(RowSelectBatch, DedupRepeatsWithinOneCall) {
  using T = TypeParam;
  for_each_dedup_row<T>([](int k) {
    const int len = std::max(600, 8 * k);
    return std::vector<Rows<T>>{
        with_ids<T>(draw_ids(3 * k + 7, 0, 2 * k + 3, 0xD1)),
        with_ids<T>(draw_ids(len, 0, len / 2, 0xD2))};
  });
}

// Warm rows offered again the ids they hold, mixed with new ones (which
// repeat too), then every id they have ever been offered.
TYPED_TEST(RowSelectBatch, DedupReofferedHeldIds) {
  using T = TypeParam;
  for_each_dedup_row<T>([](int k) {
    const int span = 4 * k + 40;
    std::vector<int> first = draw_ids(2 * k + 5, 0, span, 0xE1);
    std::vector<int> second = first;  // every held id again…
    const std::vector<int> more = draw_ids(6 * k + 600, 0, 2 * span, 0xE2);
    second.insert(second.end(), more.begin(), more.end());  // …and new ones
    std::vector<int> all(static_cast<std::size_t>(2 * span));
    std::iota(all.begin(), all.end(), 0);
    std::shuffle(all.begin(), all.end(), std::mt19937(0xE3));
    return std::vector<Rows<T>>{with_ids<T>(first), with_ids<T>(second),
                                with_ids<T>(all)};
  });
}

// Ids a row held and lost to nearer ones come back: the scan's set still
// names them (it never forgets an id), the merge's does not, and both must
// turn them away at the root.
TYPED_TEST(RowSelectBatch, DedupEvictedIdsOfferedAgain) {
  using T = TypeParam;
  for_each_dedup_row<T>([](int k) {
    std::vector<int> far, near;
    for (int id = 0; id < 8 * k + 64; ++id) {
      (dist_of<T>(id) >= T(12) ? far : near).push_back(id);
    }
    std::vector<int> again = far;  // the evicted, twice, with a few new ones
    again.insert(again.end(), far.begin(), far.end());
    for (int id = 0; id < 10; ++id) again.push_back(100000 + id);
    std::shuffle(again.begin(), again.end(), std::mt19937(0xF1));
    return std::vector<Rows<T>>{with_ids<T>(far), with_ids<T>(near),
                                with_ids<T>(again)};
  });
}

// The sampled bound undershoots on repeats alone: the sampled slots (every
// len/256-th) hold a pool of k/2 ids at one small distance, repeated across
// every even slot, so the filter keeps thousands of candidates under the
// bound but only k/2 distinct ones. The merge must count distinct entries
// and filter again on the root; on a warm row too.
TYPED_TEST(RowSelectBatch, DedupBoundUndershootsOnRepeats) {
  using T = TypeParam;
  for_each_dedup_row<T>([](int k) {
    const int len = std::max(1024, 8 * k);
    const int pool = std::max(1, k / 2);
    Rows<T> r;
    for (int j = 0; j < len; ++j) {
      if (j % 2 == 0) {
        r.ids.push_back(1000000 + (j / 2) % pool);
        r.cand.push_back(T(0.5));
      } else {
        r.ids.push_back(j);
        r.cand.push_back(T(1) + dist_of<T>(j));
      }
    }
    Rows<T> warm = with_ids<T>(draw_ids(2 * k + 9, len, 4 * k + 9, 0xA7));
    for (auto& d : warm.cand) d += T(1);
    return std::vector<Rows<T>>{r, warm, r};
  });
}

}  // namespace
}  // namespace gsknn
