// Deadlines and cooperative cancellation (docs/ROBUSTNESS.md): every driver
// polls KnnConfig::cancel / ::deadline at block boundaries and unwinds to a
// clean Status with finished rows intact and unfinished rows flagged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include "gsknn/common/cancel.hpp"
#include "gsknn/common/fault.hpp"
#include "gsknn/common/threads.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/core/packed_refs.hpp"
#include "gsknn/data/generators.hpp"
#include "gsknn/tree/lsh.hpp"
#include "gsknn/tree/rkd_forest.hpp"
#include "test_util.hpp"

namespace gsknn {
namespace {

class CancelTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::reset(); }
};

std::vector<int> iota_ids(int count, int from = 0) {
  std::vector<int> v(static_cast<std::size_t>(count));
  std::iota(v.begin(), v.end(), from);
  return v;
}

TEST_F(CancelTest, PreCancelledTokenStopsBeforeAnyWork) {
  const PointTable X = make_uniform(8, 120, 0xC0);
  const auto q = iota_ids(20);
  const auto r = iota_ids(100, 20);
  NeighborTable res(20, 4);
  CancelToken token;
  token.cancel();
  KnnConfig cfg;
  cfg.cancel = &token;
  EXPECT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kCancelled);
  for (int i = 0; i < res.rows(); ++i) {
    EXPECT_FALSE(res.row_complete(i)) << "row " << i;
    EXPECT_TRUE(res.sorted_row(i).empty()) << "row " << i;
  }
}

TEST_F(CancelTest, ThrowingOverloadRaisesStatusError) {
  const PointTable X = make_uniform(6, 60, 0xC1);
  const auto q = iota_ids(10);
  const auto r = iota_ids(50, 10);
  NeighborTable res(10, 3);
  CancelToken token;
  token.cancel();
  KnnConfig cfg;
  cfg.cancel = &token;
  try {
    knn_kernel(X, q, r, res, cfg);
    FAIL() << "cancelled call returned";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kCancelled);
  }
}

TEST_F(CancelTest, TokenResetReArmsForReuse) {
  const PointTable X = make_uniform(6, 60, 0xC2);
  const auto q = iota_ids(10);
  const auto r = iota_ids(50, 10);
  NeighborTable res(10, 3);
  CancelToken token;
  token.cancel();
  KnnConfig cfg;
  cfg.cancel = &token;
  EXPECT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kCancelled);
  token.reset();
  EXPECT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kOk);
  for (int i = 0; i < res.rows(); ++i) {
    EXPECT_TRUE(res.row_complete(i)) << "row " << i;
    EXPECT_EQ(res.sorted_row(i).size(), 3u) << "row " << i;
  }
}

// Cancellation granularity is the mc-block, not the whole call: with small
// explicit blocking a mid-kernel cancellation (forced at an exact poll via
// the fault hook) leaves the finished blocks' rows complete and bitwise
// equal to an uncancelled run, and only the unfinished rows flagged.
TEST_F(CancelTest, MidKernelCancellationKeepsFinishedBlocks) {
  const PointTable X = make_uniform(10, 160, 0xC3);
  const auto q = iota_ids(64);
  const auto r = iota_ids(96, 64);
  KnnConfig cfg;
  cfg.blocking = BlockingParams{};
  cfg.blocking->mc = 16;
  cfg.blocking->nc = 16;
  cfg.blocking->dc = 32;
  cfg.variant = Variant::kVar1;

  NeighborTable clean(64, 5);
  knn_kernel(X, q, r, clean, cfg);

  // Count the polls this exact call makes, then cancel in the middle.
  fault::configure({.cancel_at = (1ll << 40)});
  {
    NeighborTable scratch(64, 5);
    ASSERT_EQ(knn_kernel_status(X, q, r, scratch, cfg), Status::kOk);
  }
  const auto polls = fault::poll_count();
  ASSERT_GT(polls, 2u) << "blocking too coarse to land a mid-kernel cancel";

  fault::configure({.cancel_at = static_cast<std::int64_t>(polls / 2)});
  NeighborTable res(64, 5);
  EXPECT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kCancelled);
  fault::reset();

  int complete = 0, incomplete = 0;
  for (int i = 0; i < res.rows(); ++i) {
    if (res.row_complete(i)) {
      ++complete;
      EXPECT_EQ(res.sorted_row(i), clean.sorted_row(i)) << "row " << i;
    } else {
      ++incomplete;
    }
  }
  EXPECT_GT(incomplete, 0);  // the cancel landed mid-kernel
  EXPECT_EQ(complete + incomplete, 64);
}

TEST_F(CancelTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  const PointTable X = make_uniform(8, 100, 0xC4);
  const auto q = iota_ids(16);
  const auto r = iota_ids(84, 16);
  NeighborTable res(16, 4);
  KnnConfig cfg;
  cfg.deadline = deadline_after_ms(0);  // already expired
  EXPECT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kDeadlineExceeded);
  for (int i = 0; i < res.rows(); ++i) {
    EXPECT_FALSE(res.row_complete(i)) << "row " << i;
  }
}

TEST_F(CancelTest, GenerousDeadlineDoesNotTrip) {
  const PointTable X = make_uniform(8, 100, 0xC5);
  const auto q = iota_ids(16);
  const auto r = iota_ids(84, 16);
  NeighborTable res(16, 4);
  KnnConfig cfg;
  cfg.deadline = deadline_after_ms(60'000);
  EXPECT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kOk);
  for (int i = 0; i < res.rows(); ++i) {
    EXPECT_TRUE(res.row_complete(i)) << "row " << i;
  }
}

// A real (not pre-expired) deadline over a kernel slowed at every poll must
// land mid-run and stop it.
TEST_F(CancelTest, DeadlineLandsMidKernelOnSlowedRun) {
  const PointTable X = make_uniform(10, 200, 0xC6);
  const auto q = iota_ids(64);
  const auto r = iota_ids(128, 64);
  KnnConfig cfg;
  cfg.blocking = BlockingParams{};
  cfg.blocking->mc = 16;
  cfg.blocking->nc = 16;
  cfg.blocking->dc = 32;
  cfg.variant = Variant::kVar1;
  cfg.deadline = deadline_after_ms(5);
  fault::configure({.slow_us = 2000});  // each poll costs 2 ms
  NeighborTable res(64, 4);
  EXPECT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kDeadlineExceeded);
}

TEST_F(CancelTest, MultiThreadedKernelCancelsCleanly) {
  const PointTable X = make_uniform(8, 240, 0xC7);
  const auto q = iota_ids(96);
  const auto r = iota_ids(144, 96);
  KnnConfig cfg;
  cfg.threads = 3;
  CancelToken token;
  token.cancel();
  cfg.cancel = &token;
  NeighborTable res(96, 4);
  EXPECT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kCancelled);
  for (int i = 0; i < res.rows(); ++i) {
    EXPECT_FALSE(res.row_complete(i)) << "row " << i;
  }
}

// Variant 5 selects in all-or-nothing regions: a stop before selection
// flags every row, and no row is ever half-selected.
TEST_F(CancelTest, StreamingVariantsCancelAllOrNothing) {
  const PointTable X = make_uniform(8, 120, 0xC8);
  const auto q = iota_ids(24);
  const auto r = iota_ids(96, 24);
  NeighborTable res(24, 4);
  KnnConfig cfg;
  cfg.variant = Variant::kVar5;
  CancelToken token;
  token.cancel();
  cfg.cancel = &token;
  ASSERT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kCancelled);
  for (int i = 0; i < res.rows(); ++i) {
    EXPECT_FALSE(res.row_complete(i)) << "row " << i;
    EXPECT_TRUE(res.sorted_row(i).empty()) << "row " << i;
  }
}

TEST_F(CancelTest, Float32KernelHonorsToken) {
  const PointTable X = make_uniform(8, 120, 0xC9);
  const PointTableF Xf = to_float(X);
  const auto q = iota_ids(20);
  const auto r = iota_ids(100, 20);
  NeighborTableF res(20, 4);
  CancelToken token;
  token.cancel();
  KnnConfig cfg;
  cfg.cancel = &token;
  EXPECT_EQ(knn_kernel_status(Xf, q, r, res, cfg), Status::kCancelled);
  for (int i = 0; i < res.rows(); ++i) {
    EXPECT_FALSE(res.row_complete(i)) << "row " << i;
  }
  token.reset();
  EXPECT_EQ(knn_kernel_status(Xf, q, r, res, cfg), Status::kOk);
}

TEST_F(CancelTest, ParallelRefsSkipsMergeOnCancel) {
  const PointTable X = make_uniform(8, 200, 0xCA);
  const auto q = iota_ids(24);
  const auto r = iota_ids(176, 24);
  NeighborTable res(24, 4);
  KnnConfig cfg;
  cfg.threads = 3;
  CancelToken token;
  token.cancel();
  cfg.cancel = &token;
  EXPECT_EQ(knn_kernel_parallel_refs_status(X, q, r, res, cfg),
            Status::kCancelled);
  // Merge skipped entirely: the caller's table is untouched.
  for (int i = 0; i < res.rows(); ++i) {
    EXPECT_TRUE(res.sorted_row(i).empty()) << "row " << i;
  }
}

// A cancelled batch finishes nothing new: started tasks stop at block
// granularity, pending tasks are skipped with their rows flagged.
TEST_F(CancelTest, BatchSkipsPendingTasksOnCancel) {
  const PointTable X = make_uniform(6, 90, 0xCB);
  const auto r = iota_ids(60, 30);
  std::vector<std::vector<int>> qs, rows;
  for (int g = 0; g < 3; ++g) {
    qs.push_back(iota_ids(10, g * 10));
    rows.push_back(iota_ids(10, g * 10));
  }
  NeighborTable t(30, 3);
  std::vector<KnnTask> tasks;
  for (int g = 0; g < 3; ++g) {
    tasks.push_back(
        KnnTask{qs[static_cast<std::size_t>(g)], r, &t,
                rows[static_cast<std::size_t>(g)]});
  }
  CancelToken token;
  token.cancel();
  KnnConfig cfg;
  cfg.cancel = &token;
  EXPECT_EQ(knn_batch_status(X, tasks, 3, cfg), Status::kCancelled);
  for (int i = 0; i < 30; ++i) {
    EXPECT_FALSE(t.row_complete(i)) << "row " << i;
    EXPECT_TRUE(t.sorted_row(i).empty()) << "row " << i;
  }
}

TEST_F(CancelTest, TreeSolverUnwindsOnCancel) {
  const PointTable X = make_uniform(6, 300, 0xCC);
  for (const tree::KernelBackend backend :
       {tree::KernelBackend::kGsknn, tree::KernelBackend::kGemmBaseline}) {
    tree::RkdConfig cfg;
    cfg.leaf_size = 32;
    cfg.num_trees = 2;
    cfg.backend = backend;
    CancelToken token;
    token.cancel();
    cfg.kernel.cancel = &token;
    const auto out = tree::all_nearest_neighbors(X, 4, cfg);
    EXPECT_EQ(out.status, Status::kCancelled);
    EXPECT_EQ(out.leaves_processed, 0);
  }
}

TEST_F(CancelTest, TreeSolverCompletesWithoutPressure) {
  const PointTable X = make_uniform(6, 200, 0xCD);
  tree::RkdConfig cfg;
  cfg.leaf_size = 32;
  cfg.num_trees = 2;
  CancelToken token;  // live but never cancelled
  cfg.kernel.cancel = &token;
  const auto out = tree::all_nearest_neighbors(X, 4, cfg);
  EXPECT_EQ(out.status, Status::kOk);
  EXPECT_GT(out.leaves_processed, 0);
}

TEST_F(CancelTest, LshSolverUnwindsOnDeadline) {
  const PointTable X = make_uniform(6, 300, 0xCE);
  tree::LshConfig cfg;
  cfg.tables = 4;
  cfg.bucket_width = 8.0;  // wide buckets: collisions (and thus groups) certain
  cfg.kernel.deadline = deadline_after_ms(0);
  const auto out = tree::lsh_all_nearest_neighbors(X, 4, cfg);
  EXPECT_EQ(out.status, Status::kDeadlineExceeded);
}

// One token may govern concurrent calls: cancel from another thread while a
// slowed kernel runs, and the kernel must come back kCancelled.
TEST_F(CancelTest, CancelFromAnotherThreadStopsARunningKernel) {
  const PointTable X = make_uniform(10, 200, 0xCF);
  const auto q = iota_ids(64);
  const auto r = iota_ids(128, 64);
  KnnConfig cfg;
  cfg.blocking = BlockingParams{};
  cfg.blocking->mc = 16;
  cfg.blocking->nc = 16;
  cfg.blocking->dc = 32;
  cfg.variant = Variant::kVar1;
  CancelToken token;
  cfg.cancel = &token;
  fault::configure({.slow_us = 1000});  // stretch the kernel past the signal
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    token.cancel();
  });
  NeighborTable res(64, 4);
  const Status s = knn_kernel_status(X, q, r, res, cfg);
  canceller.join();
  EXPECT_EQ(s, Status::kCancelled);
}

// Every stop point of a 4-thread call, one at a time: cancel_at = 1, 2, …
// until a call finishes. Each earlier call must return kCancelled (a loop
// exit taken by some team threads and not others would hang it instead)
// and leave every row either complete and bitwise the clean row, or flagged
// incomplete with a valid part of it (docs/ROBUSTNESS.md). With `untouched`
// the call must leave the table as it was on a stop (parallel_refs).
template <typename Call>
void sweep_stop_points(const NeighborTable& clean, const std::vector<int>& r,
                       bool all_or_nothing, bool untouched, Call call) {
  for (std::int64_t at = 1;; ++at) {
    ASSERT_LT(at, 100000) << "no call finished";
    NeighborTable res(clean.rows(), clean.k());
    fault::configure({.cancel_at = at});
    const Status s = call(res);
    fault::reset();
    if (s == Status::kOk) {
      ASSERT_GT(at, 1) << "the call never polled";
      for (int i = 0; i < res.rows(); ++i) {
        EXPECT_TRUE(res.row_complete(i)) << "row " << i;
        EXPECT_EQ(res.sorted_row(i), clean.sorted_row(i)) << "row " << i;
      }
      return;
    }
    ASSERT_EQ(s, Status::kCancelled) << "cancel_at " << at;
    for (int i = 0; i < res.rows(); ++i) {
      const auto got = res.sorted_row(i);
      const auto want = clean.sorted_row(i);
      if (untouched) {
        EXPECT_TRUE(got.empty()) << "cancel_at " << at << " row " << i;
        continue;
      }
      if (res.row_complete(i)) {
        EXPECT_FALSE(all_or_nothing) << "cancel_at " << at << " row " << i;
        EXPECT_EQ(got, want) << "cancel_at " << at << " row " << i;
        continue;
      }
      // A subset of the candidates: its j-th best is no better than the
      // clean row's, with the same bits for the same candidate.
      ASSERT_LE(got.size(), want.size()) << "cancel_at " << at;
      for (std::size_t j = 0; j < got.size(); ++j) {
        EXPECT_TRUE(std::isfinite(got[j].first)) << "cancel_at " << at;
        EXPECT_GE(got[j].first, want[j].first) << "cancel_at " << at;
        EXPECT_NE(std::find(r.begin(), r.end(), got[j].second), r.end());
      }
    }
  }
}

class StopSweep : public CancelTest {
 protected:
  static constexpr int kM = 72, kK = 5, kThreads = 4;
  // 5 ic blocks and 2 pc blocks; 2 jc blocks over 64 references, and 2 per
  // parallel_refs worker over 160.
  StopSweep() : X_(make_uniform(32, kM + 160, 0xD1)) {
    bp_.mr = 8;  // 8×4: a double kernel at every dispatch level
    bp_.nr = 4;
    bp_.mc = 16;
    bp_.nc = 32;
    bp_.dc = 16;
    cfg_.threads = kThreads;
    cfg_.blocking = bp_;
  }
  NeighborTable clean(const KnnConfig& cfg, const std::vector<int>& r) const {
    NeighborTable t(kM, kK);
    EXPECT_EQ(knn_kernel_status(X_, q_, r, t, cfg), Status::kOk);
    return t;
  }
  const PointTable X_;
  const std::vector<int> q_ = iota_ids(kM);
  BlockingParams bp_;
  KnnConfig cfg_;
};

TEST_F(StopSweep, ColdAndWarmKernelAtEveryStopPoint) {
  const std::vector<int> r = iota_ids(64, kM);
  PackedRefs refs;
  ASSERT_EQ(refs.build(X_, r, {.blocking = bp_}), Status::kOk);
  for (const Variant v : test::kExplicitVariants) {
    SCOPED_TRACE(static_cast<int>(v));
    KnnConfig cfg = cfg_;
    cfg.variant = v;
    const NeighborTable want = clean(cfg, r);
    const bool all_or_nothing = v != Variant::kVar1;
    sweep_stop_points(want, r, all_or_nothing, false, [&](NeighborTable& t) {
      return knn_kernel_status(X_, q_, r, t, cfg);
    });
    sweep_stop_points(want, r, all_or_nothing, false, [&](NeighborTable& t) {
      return knn_kernel_status(refs, q_, t, cfg);
    });
  }
}

TEST_F(StopSweep, ParallelRefsAtEveryStopPoint) {
  const std::vector<int> r = iota_ids(160, kM);
  const NeighborTable want = clean(cfg_, r);
  // Without OpenMP parallel_refs runs the plain kernel, which flags rows.
  const bool split = resolve_threads(kThreads) == kThreads;
  sweep_stop_points(want, r, false, split, [&](NeighborTable& t) {
    return knn_kernel_parallel_refs_status(X_, q_, r, t, cfg_);
  });
}

}  // namespace
}  // namespace gsknn
