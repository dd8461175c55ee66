// PackedRefs (plan/pack/compute split, docs/ARCHITECTURE.md): the cache is
// an execution-order detail — warm queries must be bitwise-identical to the
// cold kernel over the same ids, across variants, threads, precisions and
// SIMD dispatch levels (this suite is re-registered under GSKNN_MAX_SIMD
// caps). Epoch/eviction/layout semantics per the header contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "gsknn/core/knn.hpp"
#include "gsknn/core/packed_refs.hpp"
#include "gsknn/data/generators.hpp"

namespace gsknn {
namespace {

/// Small blocking that yields several reference blocks on tiny datasets.
/// mr=8 / nr=4 matches the double scalar and AVX2 micro-kernels (and the
/// float scalar one), so it resolves at every dispatch level.
BlockingParams tiny_blocking() {
  BlockingParams bp;
  bp.mr = 8;
  bp.nr = 4;
  bp.mc = 16;
  bp.nc = 16;
  bp.dc = 32;
  return bp;
}

std::vector<int> iota_ids(int n, int start = 0) {
  std::vector<int> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), start);
  return ids;
}

template <typename Table>
void expect_tables_identical(const Table& a, const Table& b,
                             const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    const auto ra = a.sorted_row(i);
    const auto rb = b.sorted_row(i);
    ASSERT_EQ(ra.size(), rb.size()) << what << " row " << i;
    for (std::size_t j = 0; j < ra.size(); ++j) {
      // Exact equality: distances must be bit-identical, not just close.
      EXPECT_EQ(ra[j].first, rb[j].first) << what << " row " << i;
      EXPECT_EQ(ra[j].second, rb[j].second) << what << " row " << i;
    }
  }
}

TEST(PackedRefs, ColdWarmBitwiseIdenticalAcrossVariantsAndThreads) {
  const int d = 24, n = 400, m = 120, k = 10;
  const PointTable X = make_uniform(d, n, 0xCAFE);
  const std::vector<int> ridx = iota_ids(n);
  const std::vector<int> qidx = iota_ids(m, 40);

  const Norm norms[] = {Norm::kL2Sq, Norm::kL1, Norm::kLInf, Norm::kCosine};
  const Variant variants[] = {Variant::kAuto, Variant::kVar1, Variant::kVar5};
  for (const Norm norm : norms) {
    PackedRefs refs;
    PackedRefs::Options opt;
    opt.norm = norm;
    ASSERT_EQ(refs.build(X, ridx, opt), Status::kOk);
    for (const Variant variant : variants) {
      for (const int threads : {1, 4}) {
        KnnConfig cfg;
        cfg.norm = norm;
        cfg.variant = variant;
        cfg.threads = threads;
        NeighborTable cold(m, k);
        knn_kernel(X, qidx, ridx, cold, cfg);
        NeighborTable warm(m, k);
        knn_kernel(refs, qidx, warm, cfg);
        expect_tables_identical(cold, warm, "cold/warm");
      }
    }
  }
}

TEST(PackedRefs, ColdWarmBitwiseIdenticalFloat) {
  const int d = 17, n = 300, m = 80, k = 7;
  const PointTableF X = to_float(make_uniform(d, n, 0xF10A7));
  const std::vector<int> ridx = iota_ids(n);
  const std::vector<int> qidx = iota_ids(m);

  PackedRefsF refs;
  ASSERT_EQ(refs.build(X, ridx, {}), Status::kOk);
  for (const Variant variant : {Variant::kVar1, Variant::kVar5}) {
    KnnConfig cfg;
    cfg.variant = variant;
    NeighborTableF cold(m, k);
    knn_kernel(X, qidx, ridx, cold, cfg);
    NeighborTableF warm(m, k);
    knn_kernel(refs, qidx, warm, cfg);
    expect_tables_identical(cold, warm, "float cold/warm");
  }
}

// The whole point of the cache: repeat traffic packs nothing.
TEST(PackedRefs, WarmQueriesMoveZeroPackedBytes) {
  const int d = 12, n = 200, k = 5;
  const PointTable X = make_uniform(d, n, 1);
  PackedRefs refs;
  ASSERT_EQ(refs.build(X, iota_ids(n), {}), Status::kOk);

  const std::vector<int> qidx = iota_ids(50);
  NeighborTable result(50, k);
  knn_kernel(refs, qidx, result, {});
  const PackedRefs::Stats cold = refs.stats();
  EXPECT_GT(cold.misses, 0u);
  EXPECT_GT(cold.bytes_packed, 0u);

  KnnConfig cfg;
  cfg.dedup = true;  // make the repeat idempotent on the same table
  for (int r = 0; r < 3; ++r) knn_kernel(refs, qidx, result, cfg);
  const PackedRefs::Stats warm = refs.stats();
  EXPECT_EQ(warm.bytes_packed, cold.bytes_packed);  // zero new bytes
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_GT(warm.hits, cold.hits);
}

TEST(PackedRefs, EpochSemanticsAndStaleRejection) {
  const int d = 8, n = 60, k = 3;
  const PointTable X = make_uniform(d, n, 2);
  PackedRefs refs;
  ASSERT_EQ(refs.build(X, iota_ids(40), {}), Status::kOk);
  EXPECT_EQ(refs.epoch(), 0u);

  const std::vector<int> extra = {40, 41};
  ASSERT_EQ(refs.insert(extra), Status::kOk);
  EXPECT_EQ(refs.epoch(), 1u);
  const std::vector<int> gone = {3};
  ASSERT_EQ(refs.erase(gone), Status::kOk);
  EXPECT_EQ(refs.epoch(), 2u);

  const std::vector<int> qidx = iota_ids(10);
  NeighborTable result(10, k);
  // Stale pin: an epoch captured before the updates is rejected and the
  // result is left untouched.
  EXPECT_EQ(knn_kernel_status(refs, qidx, result, {}, {}, 0), Status::kStale);
  EXPECT_TRUE(result.sorted_row(0).empty());
  // Current epoch and the sentinel both pass.
  EXPECT_EQ(knn_kernel_status(refs, qidx, result, {}, {}, refs.epoch()),
            Status::kOk);
  EXPECT_FALSE(result.sorted_row(0).empty());
  EXPECT_EQ(knn_kernel_status(refs, qidx, result, {}, {}, kEpochAny),
            Status::kOk);
}

// Updates repack only the blocks whose id range changed: an aligned append
// touches just the new block; erase touches the victim's block and the tail
// block it swap-removes from.
TEST(PackedRefs, UpdatesRepackOnlyTouchedBlocks) {
  const int d = 8, n = 80, k = 3;
  const PointTable X = make_uniform(d, n, 3);
  PackedRefs refs;
  PackedRefs::Options opt;
  opt.blocking = tiny_blocking();  // nc = 16 -> 60 ids = 4 blocks
  opt.eager = true;
  ASSERT_EQ(refs.build(X, iota_ids(60), opt), Status::kOk);
  EXPECT_EQ(refs.num_blocks(), 4);
  const PackedRefs::Stats built = refs.stats();
  // Eager packing is not an acquire, so it counts bytes but not misses.
  EXPECT_EQ(built.misses, 0u);
  EXPECT_GT(built.bytes_packed, 0u);
  EXPECT_EQ(built.resident_blocks, 4);

  const std::vector<int> qidx = iota_ids(16);
  NeighborTable result(16, k);
  KnnConfig cfg;
  cfg.dedup = true;

  // 60 % 16 != 0: appending crosses into the partial tail block, so exactly
  // that one block repacks; the other three stay resident.
  const std::vector<int> extra = {60};
  ASSERT_EQ(refs.insert(extra), Status::kOk);
  knn_kernel(refs, qidx, result, cfg);
  const PackedRefs::Stats after_insert = refs.stats();
  EXPECT_EQ(after_insert.misses, built.misses + 1);
  EXPECT_EQ(after_insert.hits, built.hits + 3);

  // Erase from block 0: swap-remove pulls the last id forward, so block 0
  // and the tail block repack; the two middle blocks stay resident.
  const std::vector<int> victim = {5};
  ASSERT_EQ(refs.erase(victim), Status::kOk);
  knn_kernel(refs, qidx, result, cfg);
  const PackedRefs::Stats after_erase = refs.stats();
  EXPECT_EQ(after_erase.misses, after_insert.misses + 2);
  EXPECT_EQ(after_erase.hits, after_insert.hits + 2);

  // And the incrementally-updated cache still answers exactly like a cold
  // kernel over its current id list.
  NeighborTable warm(16, k), cold(16, k);
  knn_kernel(refs, qidx, warm, {});
  std::vector<int> ids(refs.ids().begin(), refs.ids().end());
  knn_kernel(X, qidx, ids, cold, {});
  expect_tables_identical(cold, warm, "post-update");
}

TEST(PackedRefs, EvictionKeepsResidencyUnderBudget) {
  const int d = 8, n = 64, k = 3;
  const PointTable X = make_uniform(d, n, 4);
  PackedRefs::Options opt;
  opt.blocking = tiny_blocking();  // 4 blocks of 16

  // Learn the full residency footprint, then rebuild with half of it.
  PackedRefs probe;
  PackedRefs::Options eager = opt;
  eager.eager = true;
  ASSERT_EQ(probe.build(X, iota_ids(n), eager), Status::kOk);
  const std::size_t full = probe.stats().resident_bytes;
  ASSERT_GT(full, 0u);

  PackedRefs refs;
  opt.budget_bytes = full / 2 + 1;
  ASSERT_EQ(refs.build(X, iota_ids(n), opt), Status::kOk);
  const std::vector<int> qidx = iota_ids(32);
  NeighborTable warm(32, k);
  knn_kernel(refs, qidx, warm, {});
  const PackedRefs::Stats st = refs.stats();
  EXPECT_GT(st.evictions, 0u);
  EXPECT_LE(st.resident_bytes, opt.budget_bytes);

  NeighborTable cold(32, k);
  std::vector<int> ids = iota_ids(n);
  knn_kernel(X, qidx, ids, cold, {});
  expect_tables_identical(cold, warm, "evicting");

  // A budget below even one block cannot hold a working set: refuse up
  // front instead of thrashing.
  PackedRefs tiny;
  opt.budget_bytes = 1;
  EXPECT_EQ(tiny.build(X, iota_ids(n), opt), Status::kResourceExhausted);
}

// A cache serves exactly the norms whose cold pack would have produced the
// same panel bytes (poisoned vs plain, header "layout classes").
TEST(PackedRefs, LayoutCompatibilityEnforced) {
  const int d = 6, n = 50, k = 3;
  const PointTable X = make_uniform(d, n, 5);
  const std::vector<int> qidx = iota_ids(10);
  NeighborTable result(10, k);

  PackedRefs l2;
  PackedRefs::Options opt;
  opt.norm = Norm::kL2Sq;
  ASSERT_EQ(l2.build(X, iota_ids(n), opt), Status::kOk);
  KnnConfig linf_cfg;
  linf_cfg.norm = Norm::kLInf;
  EXPECT_EQ(knn_kernel_status(l2, qidx, result, linf_cfg),
            Status::kUnsupported);
  KnnConfig l1_cfg;
  l1_cfg.norm = Norm::kL1;  // norms-class panels serve plain-class queries
  EXPECT_EQ(knn_kernel_status(l2, qidx, result, l1_cfg), Status::kOk);

  PackedRefs linf;
  opt.norm = Norm::kLInf;
  ASSERT_EQ(linf.build(X, iota_ids(n), opt), Status::kOk);
  KnnConfig l2_cfg;
  EXPECT_EQ(knn_kernel_status(linf, qidx, result, l2_cfg),
            Status::kUnsupported);
}

// Regression (lease TOCTOU): an insert()/erase() racing a warm call used to
// slip between the call's entry epoch check and its block pins — the pins
// did not re-validate, so the kernel could compute over a just-repacked
// new-generation panel next to old-generation ones, and the id list could
// reallocate under the call's span. Now every call captures one snapshot at
// entry and every pin re-validates its epoch under the cache lock: a racing
// mutator yields a clean kStale with unfinished rows flagged, and every row
// the call DID complete is bitwise-identical to a cold kernel over the
// snapshot's exact id list. Under the tsan preset this test also proves the
// copy-on-write list and deferred-free lease machinery race-free.
TEST(PackedRefs, MutateWhileQueryYieldsCleanStaleNeverMixedEpochs) {
  const int d = 16, base_n = 180, m = 12, k = 6;
  const PointTable X = make_uniform(d, 260, 0x70C7);
  PackedRefs refs;
  PackedRefs::Options opt;
  opt.blocking = tiny_blocking();  // many small blocks -> many pin points
  ASSERT_EQ(refs.build(X, iota_ids(base_n), opt), Status::kOk);

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    const std::vector<int> extra = iota_ids(40, 220);
    while (!stop.load(std::memory_order_relaxed)) {
      if (refs.insert(extra) != Status::kOk) break;
      if (refs.erase(extra) != Status::kOk) break;
    }
  });
  // A failing ASSERT below returns from the test body; join on every exit
  // or the still-joinable thread terminates the process and eats the
  // failure message.
  struct JoinGuard {
    std::atomic<bool>& stop;
    std::thread& th;
    ~JoinGuard() {
      stop.store(true, std::memory_order_relaxed);
      if (th.joinable()) th.join();
    }
  } join_guard{stop, mutator};

  const std::vector<int> qidx = iota_ids(m, 200);
  KnnConfig cfg;
  cfg.blocking = refs.blocking();  // cold oracle mirrors the pinned geometry
  int stale = 0, ok = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const PackedRefs::Snapshot snap = refs.snapshot();
    const std::vector<int> ids = *snap.ids;  // the generation we validated
    NeighborTable warm(m, k);
    const Status s = knn_kernel_status(refs, qidx, warm, cfg, {}, snap.epoch);
    ASSERT_TRUE(s == Status::kOk || s == Status::kStale)
        << "iter " << iter << ": " << status_name(s);
    (s == Status::kOk ? ok : stale)++;
    // A stale reject — at entry (nothing ran) or mid-flight (a pin lost the
    // race) — must flag the rows it starved: vacuously-complete fresh rows
    // must never let kStale read as a finished empty result.
    if (s == Status::kStale) {
      ASSERT_FALSE(warm.all_rows_complete()) << "iter " << iter;
    }

    NeighborTable cold(m, k);
    knn_kernel(X, qidx, ids, cold, cfg);
    for (int i = 0; i < m; ++i) {
      if (s == Status::kOk) {
        ASSERT_TRUE(warm.row_complete(i)) << "iter " << iter << " row " << i;
      }
      if (!warm.row_complete(i)) continue;  // kStale-interrupted rows
      const auto rw = warm.sorted_row(i);
      const auto rc = cold.sorted_row(i);
      ASSERT_EQ(rw.size(), rc.size()) << "iter " << iter << " row " << i;
      for (std::size_t j = 0; j < rw.size(); ++j) {
        ASSERT_EQ(rw[j].first, rc[j].first)
            << "iter " << iter << " row " << i << " mixed-epoch distance";
        ASSERT_EQ(rw[j].second, rc[j].second)
            << "iter " << iter << " row " << i << " mixed-epoch id";
      }
    }
  }
  // The loop must have exercised the warm path at least once either way;
  // under a racing mutator both outcomes are normally seen, but only their
  // cleanliness (asserted above) is the contract.
  EXPECT_GT(ok + stale, 0);
}

TEST(PackedRefs, ValidationErrors) {
  const int d = 4, n = 20;
  const PointTable X = make_uniform(d, n, 7);
  PackedRefs refs;

  // Query before build.
  NeighborTable result(2, 2);
  const std::vector<int> qidx = {0, 1};
  EXPECT_EQ(knn_kernel_status(refs, qidx, result, {}),
            Status::kInvalidArgument);

  // Out-of-range reference id at build.
  const std::vector<int> bad = {0, 1, n};
  EXPECT_EQ(refs.build(X, bad, {}), Status::kBadIndex);
  EXPECT_FALSE(refs.built());

  ASSERT_EQ(refs.build(X, iota_ids(n), {}), Status::kOk);
  // Out-of-range insert: rejected, no epoch bump.
  const std::vector<int> bad_ins = {n + 3};
  EXPECT_EQ(refs.insert(bad_ins), Status::kBadIndex);
  EXPECT_EQ(refs.epoch(), 0u);
  // Erase of an absent id: all-or-nothing, nothing removed.
  const std::vector<int> bad_del = {5, n + 1};
  EXPECT_EQ(refs.erase(bad_del), Status::kBadIndex);
  EXPECT_EQ(refs.size(), n);
  EXPECT_EQ(refs.epoch(), 0u);
}

}  // namespace
}  // namespace gsknn
