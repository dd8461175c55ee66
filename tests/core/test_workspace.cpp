// Workspace planning and the bounded arena (docs/ROBUSTNESS.md): the plan
// must mirror the driver's carving byte-exactly, the degradation ladder must
// honor caps without changing results, and an unreachable cap must fail
// cleanly with the result untouched.
#include "gsknn/core/workspace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "../../src/blas/ukernel.hpp"
#include "../../src/core/micro.hpp"
#include "gsknn/common/telemetry.hpp"
#include "gsknn/common/threads.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/data/generators.hpp"
#include "test_util.hpp"

namespace gsknn {
namespace {

// GSKNN_MAX_WORKSPACE latching lives in test_workspace_env.cpp (its own
// binary): the parse is latched process-wide on first use, and a latched cap
// would silently taint every "uncapped" expectation below.

std::vector<int> iota_ids(int count, int from = 0) {
  std::vector<int> v(static_cast<std::size_t>(count));
  std::iota(v.begin(), v.end(), from);
  return v;
}

TEST(WorkspacePlan, UncappedPlanIsTheNaturalFootprint) {
  const auto plan = plan_knn_workspace<double>(128, 512, 64, 16, {});
  EXPECT_TRUE(plan.fits);
  EXPECT_EQ(plan.retile_steps, 0);
  EXPECT_EQ(plan.cap_bytes, 0u);
  EXPECT_GT(plan.shared_bytes, 0u);
  EXPECT_GT(plan.per_thread_bytes, 0u);
  EXPECT_EQ(plan.total_bytes(),
            plan.shared_bytes + static_cast<std::size_t>(plan.threads) *
                                    plan.per_thread_bytes);
}

TEST(WorkspacePlan, DegenerateShapesNeedNoWorkspace) {
  EXPECT_EQ(plan_knn_workspace<double>(0, 512, 64, 16, {}).total_bytes(), 0u);
  EXPECT_EQ(plan_knn_workspace<double>(128, 0, 64, 16, {}).total_bytes(), 0u);
  EXPECT_EQ(plan_knn_workspace<double>(128, 512, 0, 16, {}).total_bytes(), 0u);
}

TEST(WorkspacePlan, FloatPlanIsSmallerThanDouble) {
  const auto d64 = plan_knn_workspace<double>(128, 512, 64, 16, {});
  const auto f32 = plan_knn_workspace<float>(128, 512, 64, 16, {});
  EXPECT_LT(f32.total_bytes(), d64.total_bytes());
}

// The plan IS the driver: a profiled run must report exactly the planned
// footprint (the carve and the formula share WorkspaceArena::chunk_bytes).
TEST(WorkspacePlan, PlanMatchesDriverFootprintExactly) {
  const int m = 96, n = 384, d = 48, k = 8;
  const PointTable X = make_uniform(d, m + n, 0x9A);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  for (const std::size_t cap_div : {std::size_t{0}, std::size_t{4}}) {
    KnnConfig cfg;
    cfg.threads = 1;
    if (cap_div != 0) {
      const auto natural = plan_knn_workspace<double>(m, n, d, k, cfg);
      cfg.max_workspace_bytes = natural.total_bytes() / cap_div;
    }
    const auto plan = plan_knn_workspace<double>(m, n, d, k, cfg);
    ASSERT_TRUE(plan.fits);
    telemetry::KernelProfile P;
    cfg.profile = &P;
    NeighborTable res(m, k);
    knn_kernel(X, q, r, res, cfg);
    EXPECT_EQ(P.workspace_bytes, plan.total_bytes()) << "cap_div " << cap_div;
    EXPECT_EQ(P.workspace_cap, plan.cap_bytes) << "cap_div " << cap_div;
    EXPECT_EQ(P.workspace_retiles, plan.retile_steps)
        << "cap_div " << cap_div;
  }
}

TEST(WorkspacePlan, LadderHonorsEveryReachableCap) {
  const int m = 128, n = 1024, d = 64, k = 16;
  const auto natural = plan_knn_workspace<double>(m, n, d, k, {});
  ASSERT_GT(natural.total_bytes(), 0u);
  for (const std::size_t div : {2u, 4u, 8u, 16u}) {
    KnnConfig cfg;
    cfg.max_workspace_bytes = natural.total_bytes() / div;
    const auto plan = plan_knn_workspace<double>(m, n, d, k, cfg);
    if (!plan.fits) continue;  // below the floors: allowed to refuse
    EXPECT_LE(plan.total_bytes(), cfg.max_workspace_bytes) << "div " << div;
    EXPECT_GT(plan.retile_steps, 0) << "div " << div;
  }
}

TEST(WorkspacePlan, LadderStopsAtTheFloors) {
  KnnConfig cfg;
  cfg.max_workspace_bytes = 1;  // unreachable for any real shape
  const auto plan = plan_knn_workspace<double>(128, 1024, 64, 16, cfg);
  EXPECT_FALSE(plan.fits);
  EXPECT_GT(plan.retile_steps, 0);
  // The ladder never tiled below its documented floors.
  EXPECT_GE(plan.blocking.dc, kWorkspaceDcFloor);
  EXPECT_GE(plan.blocking.nc, plan.blocking.nr);
  EXPECT_GE(plan.blocking.mc, plan.blocking.mr);
  EXPECT_EQ(plan.cap_bytes, 1u);
}

// The ladder's first rung is retiling: over a wide reference set, one byte
// under the natural footprint, every explicit variant retiles and fits.
TEST(WorkspacePlan, CapRetilesEveryVariant) {
  const int m = 64, n = 4096, d = 32, k = 8;
  for (const Variant v : test::kExplicitVariants) {
    KnnConfig cfg;
    cfg.variant = v;
    cfg.blocking = BlockingParams{};
    cfg.blocking->nc = 128;
    const auto natural = plan_knn_workspace<double>(m, n, d, k, cfg);
    KnnConfig capped = cfg;
    capped.max_workspace_bytes = natural.total_bytes() - 1;
    const auto plan = plan_knn_workspace<double>(m, n, d, k, capped);
    EXPECT_GE(plan.retile_steps, 1) << "variant " << static_cast<int>(v);
    ASSERT_TRUE(plan.fits) << "variant " << static_cast<int>(v);
    EXPECT_LE(plan.total_bytes(), capped.max_workspace_bytes);
  }
}

// The acceptance bar: a cap of a quarter of the natural footprint must
// complete bitwise-identically to the uncapped run, only retiled.
TEST(WorkspacePlan, QuarterCapIsBitwiseIdentical) {
  const int m = 160, n = 640, d = 56, k = 12;
  const PointTable X = make_uniform(d, m + n, 0x9B);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  NeighborTable uncapped(m, k);
  knn_kernel(X, q, r, uncapped, {});

  const auto natural = plan_knn_workspace<double>(m, n, d, k, {});
  KnnConfig cfg;
  cfg.max_workspace_bytes = natural.total_bytes() / 4;
  telemetry::KernelProfile P;
  cfg.profile = &P;
  NeighborTable capped(m, k);
  knn_kernel(X, q, r, capped, cfg);

  EXPECT_GT(P.workspace_retiles, 0);
  EXPECT_LE(P.workspace_bytes, cfg.max_workspace_bytes);
  for (int i = 0; i < m; ++i) {
    EXPECT_EQ(capped.sorted_row(i), uncapped.sorted_row(i)) << "row " << i;
  }
}

TEST(WorkspacePlan, QuarterCapIsBitwiseIdenticalF32) {
  const int m = 160, n = 640, d = 56, k = 12;
  const PointTable X = make_uniform(d, m + n, 0x9C);
  const PointTableF Xf = to_float(X);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  NeighborTableF uncapped(m, k);
  knn_kernel(Xf, q, r, uncapped, {});

  const auto natural = plan_knn_workspace<float>(m, n, d, k, {});
  KnnConfig cfg;
  cfg.max_workspace_bytes = natural.total_bytes() / 4;
  NeighborTableF capped(m, k);
  knn_kernel(Xf, q, r, capped, cfg);

  for (int i = 0; i < m; ++i) {
    EXPECT_EQ(capped.sorted_row(i), uncapped.sorted_row(i)) << "row " << i;
  }
}

// Every explicit variant stays bitwise-stable under a quarter cap.
TEST(WorkspacePlan, QuarterCapAcrossVariants) {
  const int m = 96, n = 512, d = 40, k = 8;
  const PointTable X = make_uniform(d, m + n, 0x9D);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  for (const Variant v : test::kExplicitVariants) {
    KnnConfig cfg;
    cfg.variant = v;
    NeighborTable uncapped(m, k);
    knn_kernel(X, q, r, uncapped, cfg);

    const auto natural = plan_knn_workspace<double>(m, n, d, k, cfg);
    KnnConfig capped_cfg = cfg;
    capped_cfg.max_workspace_bytes = natural.total_bytes() / 4;
    const auto plan = plan_knn_workspace<double>(m, n, d, k, capped_cfg);
    ASSERT_TRUE(plan.fits) << "variant " << static_cast<int>(v);
    NeighborTable capped(m, k);
    knn_kernel(X, q, r, capped, capped_cfg);
    for (int i = 0; i < m; ++i) {
      EXPECT_EQ(capped.sorted_row(i), uncapped.sorted_row(i))
          << "variant " << static_cast<int>(v) << " row " << i;
    }
  }
}

TEST(WorkspacePlan, UnreachableCapFailsWithResultUntouched) {
  const int m = 64, n = 256, d = 32, k = 8;
  const PointTable X = make_uniform(d, m + n, 0x9E);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  KnnConfig cfg;
  cfg.max_workspace_bytes = 64;  // below any reachable footprint
  ASSERT_FALSE(plan_knn_workspace<double>(m, n, d, k, cfg).fits);
  NeighborTable res(m, k);
  EXPECT_EQ(knn_kernel_status(X, q, r, res, cfg),
            Status::kResourceExhausted);
  for (int i = 0; i < m; ++i) {
    EXPECT_TRUE(res.sorted_row(i).empty()) << "row " << i;
    EXPECT_TRUE(res.row_complete(i)) << "row " << i;  // untouched, not torn
  }
  // The throwing overload reports the same status.
  try {
    knn_kernel(X, q, r, res, cfg);
    FAIL() << "capped call returned";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kResourceExhausted);
  }
}

TEST(WorkspacePlan, MultiThreadedCapCountsPerThreadArenas) {
  if (resolve_threads(3) < 3) {
    GTEST_SKIP() << "no OpenMP: every call plans one thread";
  }
  const int m = 256, n = 512, d = 48, k = 8;
  KnnConfig cfg;
  cfg.threads = 3;
  const auto plan3 = plan_knn_workspace<double>(m, n, d, k, cfg);
  cfg.threads = 1;
  const auto plan1 = plan_knn_workspace<double>(m, n, d, k, cfg);
  EXPECT_EQ(plan3.threads, 3);
  // Three per-thread arenas instead of one (mc rebalancing may change the
  // per-thread size itself, so only the total is ordered).
  EXPECT_GT(plan3.total_bytes(), plan1.total_bytes());
}

TEST(WorkspacePlan, CappedMultiThreadedRunMatchesUncapped) {
  const int m = 192, n = 768, d = 48, k = 8;
  const PointTable X = make_uniform(d, m + n, 0x9F);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  KnnConfig cfg;
  cfg.threads = 3;
  NeighborTable uncapped(m, k);
  knn_kernel(X, q, r, uncapped, cfg);

  const auto natural = plan_knn_workspace<double>(m, n, d, k, cfg);
  KnnConfig capped_cfg = cfg;
  capped_cfg.max_workspace_bytes = natural.total_bytes() / 4;
  ASSERT_TRUE(plan_knn_workspace<double>(m, n, d, k, capped_cfg).fits);
  NeighborTable capped(m, k);
  knn_kernel(X, q, r, capped, capped_cfg);
  for (int i = 0; i < m; ++i) {
    EXPECT_EQ(capped.sorted_row(i), uncapped.sorted_row(i)) << "row " << i;
  }
}

// Var#5 carves its row merge's scratch — one row of candidates (at most
// nc) plus its k entries, 16-byte (distance, id) pairs in f64 — from the
// per-thread arena once the packed query panel is done with it, at every k
// and for dedup calls too. Here the scratch is the larger of the two, so it
// sets per_thread_bytes; Var#1 carves none. The kernel then runs inside
// that plan (ASan builds catch any carve past it), plain and dedup, and
// matches the fused Var#1 rows.
TEST(WorkspacePlan, BatchSelectionScratchIsPlanned) {
  const int m = 64, n = 4096, d = 16, k = 256;
  KnnConfig cfg;
  cfg.threads = 1;  // kAuto: Var#5 at this k
  const auto plan = plan_knn_workspace<double>(m, n, d, k, cfg);
  ASSERT_EQ(resolve_variant(m, n, d, k, cfg), Variant::kVar5);
  const int width = std::min(n, plan.blocking.nc);
  EXPECT_EQ(plan.per_thread_bytes,
            round_up(static_cast<std::size_t>(width + k) * 16,
                     kVectorAlignBytes));
  KnnConfig dedup = cfg;
  dedup.dedup = true;
  EXPECT_EQ(plan_knn_workspace<double>(m, n, d, k, dedup).per_thread_bytes,
            plan.per_thread_bytes);
  KnnConfig fused = cfg;
  fused.variant = Variant::kVar1;
  EXPECT_LT(plan_knn_workspace<double>(m, n, d, k, fused).per_thread_bytes,
            plan.per_thread_bytes);
  KnnConfig small_k = cfg;  // an explicit Var#5 merges at any k
  small_k.variant = Variant::kVar5;
  EXPECT_EQ(plan_knn_workspace<double>(m, n, d, 4, small_k).per_thread_bytes,
            round_up(static_cast<std::size_t>(width + 4) * 16,
                     kVectorAlignBytes));

  const PointTable X = make_uniform(d, m + n, 0xBA7C);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  telemetry::KernelProfile P;
  cfg.profile = &P;
  NeighborTable batched(m, k);
  knn_kernel(X, q, r, batched, cfg);
  EXPECT_EQ(P.workspace_bytes, plan.total_bytes());
  NeighborTable immediate(m, k);
  knn_kernel(X, q, r, immediate, fused);
  NeighborTable deduped(m, k);
  deduped.enable_dedup_index();
  knn_kernel(X, q, r, deduped, dedup);
  for (int i = 0; i < m; ++i) {
    EXPECT_EQ(batched.sorted_row(i), immediate.sorted_row(i)) << "row " << i;
    EXPECT_EQ(deduped.sorted_row(i), immediate.sorted_row(i)) << "row " << i;
  }
}

// kAuto at k >= 256 runs Var#5, whose distance buffer holds one m × nc
// panel: with no cap set, 65536 × 65536 at k = 300 plans exactly what
// n = nc plans — within twice the m × nc panel — not the 32 GiB of the
// full m × n matrix.
TEST(WorkspacePlan, AutoLargeKFootprintBoundedByNc) {
  const int m = 65536, n = 65536, d = 64, k = 300;
  KnnConfig cfg;
  cfg.threads = 1;
  const auto plan = plan_knn_workspace<double>(m, n, d, k, cfg);
  ASSERT_EQ(resolve_variant(m, n, d, k, cfg), Variant::kVar5);
  const int nc = plan.blocking.nc;
  ASSERT_LT(nc, n);
  EXPECT_EQ(plan.total_bytes(),
            plan_knn_workspace<double>(m, nc, d, k, cfg).total_bytes());
  EXPECT_LE(plan.total_bytes(), 2 * static_cast<std::size_t>(m) *
                                    static_cast<std::size_t>(nc) *
                                    sizeof(double));
}

// default_blocking() must name the tile dispatch picks at every level: a
// caller that passes it as explicit blocking (a Server's options, autotune's
// candidates, the benches) otherwise gets kBadConfig. The GEMM reference
// shares the tile.
TEST(BlockingFollowsDispatch, DefaultBlockingMatchesKernelTiles) {
  const SimdLevel best = cpu_features().best_level();
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (level > best) continue;
    const BlockingParams b = default_blocking(level);
    const auto mk = core::select_micro<double>(level, Norm::kL2Sq);
    const auto uk = blas::select_ukernel<double>(level);
    EXPECT_EQ(b.mr, mk.mr) << "level " << static_cast<int>(level);
    EXPECT_EQ(b.nr, mk.nr) << "level " << static_cast<int>(level);
    EXPECT_EQ(b.mr, uk.mr) << "level " << static_cast<int>(level);
    EXPECT_EQ(b.nr, uk.nr) << "level " << static_cast<int>(level);
  }
}

}  // namespace
}  // namespace gsknn
