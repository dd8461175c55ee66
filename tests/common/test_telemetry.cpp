// Telemetry subsystem: exact work-counter invariants across every selection
// variant, profile aggregation semantics, JSON/table rendering, and the
// GEMM baseline's Table-5 phases.
//
// The work counters run in every build whenever a profile sink is attached.
// The suite is also registered under the avx2 and scalar SIMD levels, so
// each level's fused selection epilogue is audited. The counting scheme is
// designed to be *exact*, not sampled: every (query, reference) candidate a
// kernel invocation examines is classified as either a heap push or a
// root-reject, so for an m×n problem
//
//     candidates_evaluated == m * n
//     heap_pushes + root_rejects == candidates_evaluated
//
// must hold to the last unit, for every variant, precision and thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "gsknn/common/telemetry.hpp"
#include "gsknn/common/threads.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/data/generators.hpp"
#include "test_util.hpp"

namespace gsknn {
namespace {

using telemetry::Counter;
using telemetry::KernelProfile;
using telemetry::Phase;

std::vector<int> iota_ids(int n, int offset = 0) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), offset);
  return v;
}

/// Micro-kernel tiles of one m×n×d call under `bp`: every depth block of
/// every (mc, nc) block runs ⌈mb/mr⌉·⌈nb/nr⌉ tiles.
std::uint64_t expected_tiles(int m, int n, int d, const BlockingParams& bp) {
  const auto cdiv = [](int a, int b) {
    return static_cast<std::uint64_t>((a + b - 1) / b);
  };
  std::uint64_t tiles = 0;
  for (int jc = 0; jc < n; jc += bp.nc) {
    for (int ic = 0; ic < m; ic += bp.mc) {
      tiles += cdiv(std::min(bp.mc, m - ic), bp.mr) *
               cdiv(std::min(bp.nc, n - jc), bp.nr);
    }
  }
  return tiles * cdiv(d, bp.dc);
}

/// Check the exact counter invariants on a profile of one m×n invocation.
void expect_exact_counters(const KernelProfile& prof, int m, int n) {
  ASSERT_TRUE(prof.counters_enabled);
  const auto mn = static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n);
  EXPECT_EQ(prof.counter(Counter::kCandidates), mn);
  EXPECT_EQ(prof.counter(Counter::kHeapPushes) +
                prof.counter(Counter::kRootRejects),
            prof.counter(Counter::kCandidates));
  // Every query must have accepted at least one candidate (the table starts
  // at +inf), and rejects cannot exceed the total.
  EXPECT_GE(prof.counter(Counter::kHeapPushes),
            static_cast<std::uint64_t>(m));
  EXPECT_EQ(prof.counter(Counter::kTiles),
            expected_tiles(m, n, prof.d, prof.blocking));
}

struct VariantCase {
  Variant variant;
  int threads;
};

KnnConfig case_config(const VariantCase& c) {
  KnnConfig cfg;
  cfg.variant = c.variant;
  cfg.threads = c.threads;
  cfg.dedup = true;  // the tree-solver configuration — counts must still add up
  return cfg;
}

std::string case_name(const ::testing::TestParamInfo<VariantCase>& tpi) {
  return "Var" + std::to_string(static_cast<int>(tpi.param.variant)) +
         "Threads" + std::to_string(tpi.param.threads);
}

void expect_counters_exact_double(KnnConfig cfg) {
  const int m = 96, n = 160, d = 24, k = 8;
  const PointTable X = make_uniform(d, m + n, 0x7E1E);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KernelProfile prof;
  cfg.profile = &prof;
  NeighborTable t(m, k);
  knn_kernel(X, q, r, t, cfg);

  EXPECT_EQ(prof.invocations, 1u);
  EXPECT_GT(prof.wall_seconds, 0.0);
  expect_exact_counters(prof, m, n);

  // The result must be untouched by the instrumentation: compare against an
  // unprofiled run.
  KnnConfig plain = cfg;
  plain.profile = nullptr;
  NeighborTable t2(m, k);
  knn_kernel(X, q, r, t2, plain);
  for (int i = 0; i < m; ++i) {
    const auto a = t.sorted_row(i);
    const auto b = t2.sorted_row(i);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].second, b[j].second);
      EXPECT_DOUBLE_EQ(a[j].first, b[j].first);
    }
  }
}

void expect_counters_exact_float(KnnConfig cfg) {
  const int m = 80, n = 144, d = 20, k = 6;
  const PointTableF X = to_float(make_uniform(d, m + n, 0x7E1F));
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KernelProfile prof;
  cfg.profile = &prof;
  NeighborTableF t(m, k);
  knn_kernel(X, q, r, t, cfg);

  EXPECT_EQ(prof.invocations, 1u);
  EXPECT_STREQ(prof.precision, "f32");
  expect_exact_counters(prof, m, n);
}

class TelemetryInvariants : public ::testing::TestWithParam<VariantCase> {};

TEST_P(TelemetryInvariants, CountersExactDouble) {
  expect_counters_exact_double(case_config(GetParam()));
}

TEST_P(TelemetryInvariants, CountersExactFloat) {
  expect_counters_exact_float(case_config(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TelemetryInvariants,
    ::testing::Values(VariantCase{Variant::kVar1, 1},
                      VariantCase{Variant::kVar1, 4},
                      VariantCase{Variant::kVar5, 1},
                      VariantCase{Variant::kVar5, 4}),
    case_name);

// The references split over several nc = 48 panels (Var#5 merges each on
// its own) and the depth over dc = 8 blocks (Var#1 selects on the last one):
// the counts must still add up.
KnnConfig multi_panel_config(const VariantCase& c) {
  KnnConfig cfg = case_config(c);
  cfg.blocking = BlockingParams{};
  cfg.blocking->nc = 48;
  cfg.blocking->dc = 8;
  return cfg;
}

class TelemetryMultiPanel : public ::testing::TestWithParam<VariantCase> {};

TEST_P(TelemetryMultiPanel, CountersExactDouble) {
  expect_counters_exact_double(multi_panel_config(GetParam()));
}

TEST_P(TelemetryMultiPanel, CountersExactFloat) {
  expect_counters_exact_float(multi_panel_config(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Nc48, TelemetryMultiPanel,
                         ::testing::Values(VariantCase{Variant::kVar1, 1},
                                           VariantCase{Variant::kVar1, 4},
                                           VariantCase{Variant::kVar5, 1},
                                           VariantCase{Variant::kVar5, 4}),
                         case_name);

TEST(Telemetry, MetadataAndPhases) {
  const int m = 64, n = 128, d = 16, k = 4;
  const PointTable X = make_uniform(d, m + n, 0xE7A);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KernelProfile prof;
  KnnConfig cfg;
  cfg.variant = Variant::kVar5;
  cfg.threads = 1;
  cfg.profile = &prof;
  NeighborTable t(m, k);
  knn_kernel(X, q, r, t, cfg);

  EXPECT_STREQ(prof.algorithm, "gsknn");
  EXPECT_STREQ(prof.precision, "f64");
  EXPECT_EQ(prof.m, m);
  EXPECT_EQ(prof.n, n);
  EXPECT_EQ(prof.d, d);
  EXPECT_EQ(prof.k, k);
  EXPECT_EQ(prof.variant, 5);
  EXPECT_GT(prof.model_gflops, 0.0);
  // Attributed phases cannot exceed the wall (other_seconds clamps at 0, so
  // verify against the raw sum), and Var#5 must attribute selection time.
  EXPECT_LE(prof.phase_total(), prof.wall_seconds * 1.0001 + 1e-6);
  EXPECT_GT(prof.phase(Phase::kMicro), 0.0);
  EXPECT_GT(prof.phase(Phase::kSelect), 0.0);
  EXPECT_GE(prof.other_seconds(), 0.0);
  EXPECT_GT(prof.gflops(), 0.0);
  EXPECT_GT(prof.selection_fraction(), 0.0);

  // Var#1 fuses selection into the micro-kernel: its select phase is zero.
  KernelProfile prof1;
  cfg.variant = Variant::kVar1;
  cfg.profile = &prof1;
  NeighborTable t1(m, k);
  knn_kernel(X, q, r, t1, cfg);
  EXPECT_EQ(prof1.variant, 1);
  EXPECT_EQ(prof1.phase(Phase::kSelect), 0.0);
  EXPECT_EQ(prof1.selection_fraction(), 0.0);
}

TEST(Telemetry, AccumulatesAcrossInvocations) {
  const int m = 48, n = 64, d = 8, k = 4;
  const PointTable X = make_uniform(d, m + n, 0xACC);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KernelProfile prof;
  KnnConfig cfg;
  cfg.threads = 1;
  cfg.profile = &prof;
  for (int rep = 0; rep < 3; ++rep) {
    NeighborTable t(m, k);
    knn_kernel(X, q, r, t, cfg);
  }
  EXPECT_EQ(prof.invocations, 3u);
  ASSERT_TRUE(prof.counters_enabled);
  EXPECT_EQ(prof.counter(Counter::kCandidates),
            3ull * static_cast<std::uint64_t>(m) * n);

  const double wall = prof.wall_seconds;
  prof.reset();
  EXPECT_EQ(prof.invocations, 0u);
  EXPECT_EQ(prof.wall_seconds, 0.0);
  EXPECT_NE(wall, 0.0);
}

// A sink over calls of different shapes reports their summed useful flops
// over their summed wall, not the last call's flops over the whole wall.
TEST(Telemetry, GflopsSumsFlopsOfEveryInvocation) {
  const int d = 8, k = 4;
  const PointTable X = make_uniform(d, 400, 0xF10);
  KernelProfile prof;
  KnnConfig cfg;
  cfg.threads = 1;
  cfg.profile = &prof;
  double flops = 0.0;
  for (const auto& [m, n] : {std::pair{48, 64}, std::pair{200, 150}}) {
    NeighborTable t(m, k);
    knn_kernel(X, iota_ids(m), iota_ids(n, m), t, cfg);
    flops += (2.0 * d + 3.0) * m * n;
  }
  EXPECT_EQ(prof.invocations, 2u);
  EXPECT_DOUBLE_EQ(prof.flops, flops);
  ASSERT_GT(prof.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(prof.gflops(), flops / prof.wall_seconds / 1e9);

  KernelProfile merged;  // merge sums the flops like every measurement
  merged.merge(prof);
  merged.merge(prof);
  EXPECT_DOUBLE_EQ(merged.flops, 2.0 * flops);
  EXPECT_DOUBLE_EQ(merged.gflops(), prof.gflops());
}

TEST(Telemetry, MergeAdoptsMetadataOnce) {
  KernelProfile a;  // empty sink, never recorded into
  KernelProfile b;
  b.algorithm = "gsknn";
  b.precision = "f64";
  b.m = 7;
  b.wall_seconds = 1.5;
  b.phase_seconds[static_cast<int>(Phase::kMicro)] = 1.0;
  b.counters[static_cast<int>(Counter::kCandidates)] = 42;
  b.counters_enabled = true;
  b.invocations = 2;

  a.merge(b);
  EXPECT_STREQ(a.algorithm, "gsknn");
  EXPECT_EQ(a.m, 7);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 1.5);
  EXPECT_EQ(a.counter(Counter::kCandidates), 42u);
  EXPECT_TRUE(a.counters_enabled);
  EXPECT_EQ(a.invocations, 2u);

  a.merge(b);  // second merge keeps metadata, sums measurements
  EXPECT_DOUBLE_EQ(a.wall_seconds, 3.0);
  EXPECT_EQ(a.counter(Counter::kCandidates), 84u);
  EXPECT_EQ(a.invocations, 4u);
}

TEST(Telemetry, JsonAndTableRendering) {
  const int m = 32, n = 48, d = 8, k = 4;
  const PointTable X = make_uniform(d, m + n, 0x15);
  KernelProfile prof;
  KnnConfig cfg;
  cfg.threads = 1;
  cfg.profile = &prof;
  NeighborTable t(m, k);
  knn_kernel(X, iota_ids(m), iota_ids(n, m), t, cfg);

  const std::string j = prof.to_json();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  for (const char* key :
       {"\"algorithm\":\"gsknn\"", "\"wall_seconds\":", "\"phases\":",
        "\"pack_q\":", "\"micro\":", "\"counters\":", "\"counters_enabled\":",
        "\"blocking\":", "\"derived\":", "\"gflops\":", "\"invocations\":1"}) {
    EXPECT_NE(j.find(key), std::string::npos) << "missing " << key << " in " << j;
  }
  // JSON must stay one line (the JSON-lines bench contract).
  EXPECT_EQ(j.find('\n'), std::string::npos);

  const std::string table = prof.format_table();
  EXPECT_NE(table.find("micro-kernel"), std::string::npos);
  EXPECT_NE(table.find("total (wall)"), std::string::npos);
}

TEST(Telemetry, BaselineUnifiedBreakdown) {
  const int m = 64, n = 96, d = 12, k = 4;
  const PointTable X = make_uniform(d, m + n, 0xB5);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KernelProfile prof;
  KnnConfig cfg;
  cfg.threads = 1;
  cfg.profile = &prof;
  NeighborTable t(m, k);
  knn_gemm_baseline(X, q, r, t, cfg);

  EXPECT_STREQ(prof.algorithm, "gemm_baseline");
  EXPECT_EQ(prof.invocations, 1u);
  // The four Table-5 phases are the profile's collect/micro/sq2d/select.
  EXPECT_GT(prof.phase(Phase::kCollect) + prof.phase(Phase::kMicro) +
                prof.phase(Phase::kSq2d) + prof.phase(Phase::kSelect),
            0.0);
  EXPECT_DOUBLE_EQ(prof.phase_total(),
                   prof.phase(Phase::kCollect) + prof.phase(Phase::kMicro) +
                       prof.phase(Phase::kSq2d) + prof.phase(Phase::kSelect));
  EXPECT_LE(prof.phase_total(), prof.wall_seconds * 1.0001 + 1e-6);
  // The baseline does not count: its profile says so and reads zero.
  EXPECT_FALSE(prof.counters_enabled);
  EXPECT_EQ(prof.counter(Counter::kCandidates), 0u);
}

// Metadata follows the most recent invocation whichever layer produced it:
// a baseline call into a sink that already holds a fused-kernel call must
// relabel the sink with its own algorithm and shape.
TEST(Telemetry, MetadataFollowsLatestInvocation) {
  const PointTable X = make_uniform(20, 400, 0x1A7E);
  KernelProfile prof;
  KnnConfig cfg;
  cfg.threads = 1;
  cfg.profile = &prof;
  NeighborTable t1(32, 4);
  knn_kernel(X, iota_ids(32), iota_ids(128, 32), t1, cfg);
  ASSERT_STREQ(prof.algorithm, "gsknn");

  NeighborTable t2(48, 6);
  knn_gemm_baseline(X, iota_ids(48), iota_ids(200, 48), t2, cfg);
  EXPECT_STREQ(prof.algorithm, "gemm_baseline");
  EXPECT_EQ(prof.m, 48);
  EXPECT_EQ(prof.n, 200);
  EXPECT_EQ(prof.d, 20);
  EXPECT_EQ(prof.k, 6);
  EXPECT_EQ(prof.invocations, 2u);
}

TEST(Telemetry, ParallelRefsMergesWorkerProfiles) {
  const int m = 32, n = 512, d = 16, k = 4;
  const PointTable X = make_uniform(d, m + n, 0xFA7);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KernelProfile prof;
  KnnConfig cfg;
  cfg.threads = 4;
  cfg.profile = &prof;
  NeighborTable t(m, k);
  knn_kernel_parallel_refs(X, q, r, t, cfg);

  // A build without OpenMP has one thread, so parallel_refs runs (and
  // reports) the plain kernel.
  EXPECT_STREQ(prof.algorithm, resolve_threads(cfg.threads) > 1
                                   ? "gsknn_parallel_refs"
                                   : "gsknn");
  EXPECT_EQ(prof.invocations, 1u);
  EXPECT_GT(prof.wall_seconds, 0.0);
  ASSERT_TRUE(prof.counters_enabled);
  // Workers partition the references, so the candidate total is exact.
  EXPECT_EQ(prof.counter(Counter::kCandidates),
            static_cast<std::uint64_t>(m) * n);
  EXPECT_EQ(prof.counter(Counter::kHeapPushes) +
                prof.counter(Counter::kRootRejects),
            prof.counter(Counter::kCandidates));
}

// The hot-path specializations must keep the counting scheme exact: the
// k == 1 accept shortcut and the sorted small-k row path (k <= kSmallSortedK)
// reclassify accepted candidates out of the driver's pre-counted
// root-rejects, and the batched row selection (Var#5, k >=
// kBatchSelectMinK) counts a whole row's filter survivors at once.
void run_and_audit(int m, int n, int d, int k, Variant variant) {
  const PointTable X = make_uniform(d, m + n, 0xA0D17 + static_cast<unsigned>(k));
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KernelProfile prof;
  KnnConfig cfg;
  cfg.variant = variant;
  cfg.threads = 1;
  cfg.profile = &prof;
  NeighborTable t(m, k);
  knn_kernel(X, q, r, t, cfg);
  expect_exact_counters(prof, m, n);

  // The packed-byte tallies must cover at least the logical panels (they
  // count padded slivers, so >= is the exact lower bound).
  EXPECT_GE(prof.counter(Counter::kBytesPackedQ),
            static_cast<std::uint64_t>(m) * d * sizeof(double));
  EXPECT_GE(prof.counter(Counter::kBytesPackedR),
            static_cast<std::uint64_t>(n) * d * sizeof(double));

  // Fast paths must not change the answer: compare with an unprofiled run.
  KnnConfig plain = cfg;
  plain.profile = nullptr;
  NeighborTable t2(m, k);
  knn_kernel(X, q, r, t2, plain);
  for (int i = 0; i < m; ++i) {
    const auto a = t.sorted_row(i);
    const auto b = t2.sorted_row(i);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j], b[j]);
  }
}

TEST(TelemetryHotPaths, KOneCountersExact) {
  run_and_audit(96, 160, 24, 1, Variant::kVar1);
}

TEST(TelemetryHotPaths, SmallSortedKCountersExact) {
  run_and_audit(96, 160, 24, 4, Variant::kVar1);  // k <= kSmallSortedK
}

// k = 256 sends Var#5 (one batch per nc panel) through the batched row
// selection.
TEST(TelemetryHotPaths, DeferredSelectionCountersExact) {
  run_and_audit(48, 512, 16, 256, Variant::kVar5);
}

TEST(TelemetryHotPaths, DeferredSelectionCountersExactFloat) {
  const int m = 48, n = 512, d = 16, k = 256;
  const PointTableF X = to_float(make_uniform(d, m + n, 0xA0D20));
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  KernelProfile prof;
  KnnConfig cfg;
  cfg.variant = Variant::kVar5;
  cfg.threads = 1;
  cfg.profile = &prof;
  NeighborTableF t(m, k);
  knn_kernel(X, q, r, t, cfg);
  expect_exact_counters(prof, m, n);
}

TEST(Telemetry, InactiveRecorderIsNoop) {
  telemetry::Recorder rec(nullptr, 8);
  EXPECT_FALSE(rec.active());
  rec.aggregate(1.0);  // must not crash or write anywhere
}

}  // namespace
}  // namespace gsknn
