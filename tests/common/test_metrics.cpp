// Tests for the always-on aggregate metrics registry
// (gsknn/common/metrics.hpp): log2 bucket-boundary exactness, status-label
// parity with gsknn::status_name, shard-merge correctness under concurrent
// recording, snapshot/reset semantics, drift-bucket placement, and the
// end-to-end guarantee that kernel entry points populate the registry in
// both precisions.
//
// The registry is process-global, so every test starts from reset() and
// re-arms recording; totals are asserted on deltas within the test.
#include "gsknn/common/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gsknn/core/knn.hpp"
#include "gsknn/data/generators.hpp"

namespace gsknn {
namespace {

namespace m = gsknn::metrics;

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    m::set_enabled(true);
    m::reset();
  }
};

TEST_F(MetricsTest, BucketBoundariesArePowerOfTwoExact) {
  EXPECT_EQ(m::bucket_index(0), 0);
  EXPECT_EQ(m::bucket_index(1), 0);
  // 2^i lands exactly in bucket i; 2^i - 1 in bucket i - 1.
  for (int i = 1; i < m::kHistBuckets; ++i) {
    const std::uint64_t p = std::uint64_t{1} << i;
    EXPECT_EQ(m::bucket_index(p), i) << "2^" << i;
    EXPECT_EQ(m::bucket_index(p - 1), i - 1) << "2^" << i << " - 1";
  }
  EXPECT_EQ(m::bucket_index(UINT64_MAX), m::kHistBuckets - 1);
  // bucket_limit is the exclusive upper edge: 2^(i+1), saturating.
  EXPECT_EQ(m::bucket_limit(0), 2u);
  EXPECT_EQ(m::bucket_limit(10), 2048u);
  EXPECT_EQ(m::bucket_limit(m::kHistBuckets - 1), UINT64_MAX);
  // A value is always strictly below its bucket's limit and at/above the
  // previous limit.
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 1023ull, 1024ull, 1025ull,
                          (1ull << 40) - 1, 1ull << 40}) {
    const int b = m::bucket_index(v);
    EXPECT_LT(v, m::bucket_limit(b));
    if (b > 0) {
      EXPECT_GE(v, m::bucket_limit(b - 1));
    }
  }
}

TEST_F(MetricsTest, StatusLabelsMatchCoreStatusNames) {
  // The common layer mirrors gsknn::Status by value without depending on
  // core; this is the parity pin promised in metrics.hpp.
  ASSERT_EQ(m::kStatusCount, static_cast<int>(Status::kStale) + 1);
  for (int s = 0; s < m::kStatusCount; ++s) {
    EXPECT_STREQ(m::status_label(s), status_name(static_cast<Status>(s)))
        << "status " << s;
  }
  EXPECT_STREQ(m::status_label(-1), "unknown");
  EXPECT_STREQ(m::status_label(m::kStatusCount), "unknown");
}

TEST_F(MetricsTest, DriftBucketPlacement) {
  // Perfect calibration lands in the center bucket.
  EXPECT_EQ(m::drift_bucket(1.0, 1.0), m::kDriftCenter);
  // 2x slower than predicted: one full log2 to the right.
  EXPECT_EQ(m::drift_bucket(1.0, 2.0),
            m::kDriftCenter + m::kDriftBucketsPerLog2);
  // 2x faster: one full log2 to the left.
  EXPECT_EQ(m::drift_bucket(2.0, 1.0),
            m::kDriftCenter - m::kDriftBucketsPerLog2);
  // Extreme ratios clamp to the edge buckets instead of overflowing.
  EXPECT_EQ(m::drift_bucket(1.0, 1e30), m::kHistBuckets - 1);
  EXPECT_EQ(m::drift_bucket(1e30, 1.0), 0);
  // Non-positive inputs are unrecordable.
  EXPECT_EQ(m::drift_bucket(0.0, 1.0), -1);
  EXPECT_EQ(m::drift_bucket(1.0, 0.0), -1);
  EXPECT_EQ(m::drift_bucket(-1.0, 1.0), -1);
}

TEST_F(MetricsTest, RecordCallAndSnapshot) {
  m::record_call(m::EntryPoint::kKernelF64, 0, 1000, 128, 256, 16, 8);
  m::record_call(m::EntryPoint::kKernelF64, 8 /* deadline_exceeded */, 2000,
                 128, 256, 16, 8);
  m::record_call(m::EntryPoint::kBatch, 0, 4000, 64, 64, 8, 4);
  const m::MetricsSnapshot s = m::snapshot();
  EXPECT_EQ(s.calls[0][0], 1u);
  EXPECT_EQ(s.calls[0][8], 1u);
  EXPECT_EQ(s.calls_total(m::EntryPoint::kKernelF64), 2u);
  EXPECT_EQ(s.calls_total(m::EntryPoint::kBatch), 1u);
  EXPECT_EQ(s.status_total(0), 2u);
  EXPECT_EQ(s.status_total(8), 1u);
  EXPECT_EQ(s.latency_sum_ns[0], 3000u);
  // Latency buckets: 1000 -> bucket 9 ([512, 1024)... no: bit_width(1000)-1
  // = 9, covers [512, 2048) upper edge 2048 exclusive at 1024? Assert via
  // bucket_index instead of hand-derived constants.
  EXPECT_EQ(s.latency[0][m::bucket_index(1000)] +
                s.latency[0][m::bucket_index(2000)],
            2u);
  // Shape axes: one sample per call per axis, sums accumulate the values.
  EXPECT_EQ(s.shape_sum[0], 128u + 128u + 64u);
  EXPECT_EQ(s.shape_sum[3], 8u + 8u + 4u);
  // Out-of-range statuses and entry points are dropped, not misfiled.
  m::record_call(m::EntryPoint::kKernelF64, 99, 1, 1, 1, 1, 1);
  m::record_call(static_cast<m::EntryPoint>(-1), 0, 1, 1, 1, 1, 1);
  EXPECT_EQ(m::snapshot().calls_total(m::EntryPoint::kKernelF64), 2u);
}

TEST_F(MetricsTest, ResetZeroesEverything) {
  m::record_call(m::EntryPoint::kLsh, 0, 123, 10, 10, 4, 2);
  m::record_drift(false, 1.0, 2.0);
  m::add_counter(m::Counter::kWorkspaceRetileSteps, 3);
  m::reset();
  const m::MetricsSnapshot s = m::snapshot();
  for (int e = 0; e < m::kEntryPointCount; ++e) {
    EXPECT_EQ(s.calls_total(static_cast<m::EntryPoint>(e)), 0u);
    EXPECT_EQ(s.latency_sum_ns[e], 0u);
  }
  EXPECT_EQ(s.drift_count(0), 0u);
  EXPECT_EQ(s.drift_sum_millilog2[0], 0);
  for (int c = 0; c < m::kCounterCount; ++c) EXPECT_EQ(s.counters[c], 0u);
  // reset() leaves the armed flag alone.
  EXPECT_TRUE(m::enabled());
}

TEST_F(MetricsTest, DisabledRecordingIsANoOp) {
  m::set_enabled(false);
  EXPECT_FALSE(m::enabled());
  m::record_call(m::EntryPoint::kKernelF64, 0, 100, 8, 8, 2, 1);
  m::record_drift(true, 1.0, 1.5);
  m::add_counter(m::Counter::kTraceSpansDropped);
  const m::MetricsSnapshot s = m::snapshot();
  EXPECT_FALSE(s.enabled);
  EXPECT_EQ(s.calls_total(m::EntryPoint::kKernelF64), 0u);
  EXPECT_EQ(s.drift_count(1), 0u);
  EXPECT_EQ(s.counters[static_cast<int>(m::Counter::kTraceSpansDropped)], 0u);
  m::set_enabled(true);
  EXPECT_TRUE(m::enabled());
}

TEST_F(MetricsTest, ConcurrentRecordingLosesNothingAcrossShards) {
  // 40 concurrent writers, each on its own registry-slot shard (the
  // overflow shard's fetch_add path is covered by ThreadSlots.
  // MoreLiveThreadsThanSlots). Run under the tsan preset this also checks
  // the relaxed-atomic scheme is race-clean.
  constexpr int kThreads = 40;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        m::record_call(m::EntryPoint::kParallelRefs, t % m::kStatusCount,
                       static_cast<std::uint64_t>(i), 32, 64, 8, 4);
        m::add_counter(m::Counter::kWorkspaceRetileSteps, 2);
      }
    });
  }
  for (auto& w : workers) w.join();
  const m::MetricsSnapshot s = m::snapshot();
  EXPECT_EQ(s.calls_total(m::EntryPoint::kParallelRefs),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.counters[static_cast<int>(m::Counter::kWorkspaceRetileSteps)],
            static_cast<std::uint64_t>(kThreads) * kPerThread * 2);
  // Every recorded call contributed exactly one latency sample.
  std::uint64_t lat = 0;
  for (int b = 0; b < m::kHistBuckets; ++b) {
    lat += s.latency[static_cast<int>(m::EntryPoint::kParallelRefs)][b];
  }
  EXPECT_EQ(lat, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, SnapshotMergeIsBucketwise) {
  m::record_call(m::EntryPoint::kRkdForest, 0, 100, 10, 10, 4, 2);
  m::record_drift(false, 1.0, 2.0);
  const m::MetricsSnapshot a = m::snapshot();
  m::reset();
  m::record_call(m::EntryPoint::kRkdForest, 9, 200, 20, 20, 8, 4);
  m::record_drift(false, 2.0, 1.0);
  m::MetricsSnapshot b = m::snapshot();
  b.merge(a);
  EXPECT_EQ(b.calls_total(m::EntryPoint::kRkdForest), 2u);
  EXPECT_EQ(b.drift_count(0), 2u);
  // +1000 and -1000 millilog2 cancel.
  EXPECT_EQ(b.drift_sum_millilog2[0], 0);
  EXPECT_EQ(b.shape_sum[0], 30u);
}

TEST_F(MetricsTest, KernelEntryPointsPopulateRegistryBothPrecisions) {
  const PointTable X = make_uniform(8, 128, 42);
  std::vector<int> ids(128);
  for (int i = 0; i < 128; ++i) ids[i] = i;
  NeighborTable out(128, 4);
  knn_kernel(X, ids, ids, out, {});

  const PointTableF Xf = to_float(X);
  NeighborTableF outf(128, 4);
  knn_kernel(Xf, ids, ids, outf, {});

  const m::MetricsSnapshot s = m::snapshot();
  EXPECT_EQ(s.calls[static_cast<int>(m::EntryPoint::kKernelF64)][0], 1u);
  EXPECT_EQ(s.calls[static_cast<int>(m::EntryPoint::kKernelF32)][0], 1u);
  // A successful kernel call with a real shape evaluates the §2.6 model.
  EXPECT_GE(s.drift_count(0), 1u);
  EXPECT_GE(s.drift_count(1), 1u);
  EXPECT_GT(s.latency_sum_ns[static_cast<int>(m::EntryPoint::kKernelF64)],
            0u);
  // Shape histograms saw m = n = 128, d = 8, k = 4 from both calls.
  EXPECT_EQ(s.shape_sum[2], 16u);
  EXPECT_EQ(s.shape_sum[3], 8u);
}

TEST_F(MetricsTest, ThrownStatusErrorIsRecordedWithItsStatus) {
  const PointTable X = make_uniform(4, 16, 1);
  std::vector<int> bad = {0, 1, 999};  // out of range
  NeighborTable out(3, 2);
  EXPECT_THROW(knn_kernel(X, bad, bad, out, {}), StatusError);
  const m::MetricsSnapshot s = m::snapshot();
  EXPECT_EQ(
      s.calls[static_cast<int>(m::EntryPoint::kKernelF64)]
             [static_cast<int>(Status::kBadIndex)],
      1u);
  // Failed calls record no drift sample (the model only grades completed
  // kernels).
  EXPECT_EQ(s.drift_count(0), 0u);
}

TEST_F(MetricsTest, LatencyQuantileReturnsBucketUpperEdge) {
  // 10 samples in bucket_index(100)=6 ([64,128), edge 128) and 90 samples
  // in bucket_index(1<<20) (edge 1<<21).
  for (int i = 0; i < 10; ++i) {
    m::record_call(m::EntryPoint::kGemmBaseline, 0, 100, 1, 1, 1, 1);
  }
  for (int i = 0; i < 90; ++i) {
    m::record_call(m::EntryPoint::kGemmBaseline, 0, 1u << 20, 1, 1, 1, 1);
  }
  const m::MetricsSnapshot s = m::snapshot();
  EXPECT_EQ(s.latency_quantile_ns(m::EntryPoint::kGemmBaseline, 0.0),
            m::bucket_limit(m::bucket_index(100)));
  EXPECT_EQ(s.latency_quantile_ns(m::EntryPoint::kGemmBaseline, 0.5),
            m::bucket_limit(m::bucket_index(1u << 20)));
  EXPECT_EQ(s.latency_quantile_ns(m::EntryPoint::kGemmBaseline, 0.99),
            m::bucket_limit(m::bucket_index(1u << 20)));
  // No samples -> 0.
  EXPECT_EQ(s.latency_quantile_ns(m::EntryPoint::kLsh, 0.5), 0u);
}

TEST_F(MetricsTest, JsonExportHasStableSchema) {
  m::record_call(m::EntryPoint::kKernelF64, 0, 1000, 64, 64, 8, 4);
  m::record_drift(false, 1.0, 1.1);
  const std::string j = m::snapshot().to_json();
  for (const char* key :
       {"\"metrics_version\":1", "\"entry_points\"", "\"kernel_f64\"",
        "\"kernel_f32\"", "\"parallel_refs\"", "\"batch\"",
        "\"gemm_baseline\"", "\"single_loop\"", "\"rkd_forest\"", "\"lsh\"",
        "\"latency_ns\"", "\"p50_ns\"", "\"p99_ns\"", "\"shape\"",
        "\"model_drift\"", "\"f64\"", "\"f32\"", "\"counters\"",
        "\"workspace_retiled_calls\"", "\"trace_spans_dropped\"",
        "\"pmu_multiplexed_reads\"", "\"deadline_exceeded\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << "missing " << key;
  }
  // Balanced braces (cheap well-formedness check; check_metrics.py does
  // the full parse in the integration suite).
  int depth = 0;
  for (char c : j) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(MetricsTest, PrometheusExportHasAllFamilies) {
  m::record_call(m::EntryPoint::kKernelF64, 0, 1000, 64, 64, 8, 4);
  const std::string p = m::snapshot().to_prometheus();
  for (const char* family :
       {"# TYPE gsknn_metrics_enabled gauge",
        "# TYPE gsknn_calls_total counter",
        "# TYPE gsknn_latency_seconds histogram",
        "# TYPE gsknn_shape histogram",
        "# TYPE gsknn_model_drift_log2 histogram",
        "# TYPE gsknn_events_total counter"}) {
    EXPECT_NE(p.find(family), std::string::npos) << "missing " << family;
  }
  // Cumulative histograms end with +Inf == _count for the recorded series.
  EXPECT_NE(
      p.find("gsknn_latency_seconds_bucket{entry=\"kernel_f64\",le=\"+Inf\"} 1"),
      std::string::npos);
  EXPECT_NE(p.find("gsknn_latency_seconds_count{entry=\"kernel_f64\"} 1"),
            std::string::npos);
  // Windowed gauge families ride along with fixed label sets.
  for (const char* family :
       {"# TYPE gsknn_window_calls gauge",
        "gsknn_window_latency_seconds{quantile=\"0.5\"}",
        "gsknn_window_latency_seconds{quantile=\"0.99\"}",
        "gsknn_window_burn_rate{slo=\"latency\"}",
        "gsknn_window_burn_rate{slo=\"availability\"}"}) {
    EXPECT_NE(p.find(family), std::string::npos) << "missing " << family;
  }
}

// ---- rolling windows -------------------------------------------------------
//
// The *_at entry points take an explicit clock so the 60x1s ring can be
// driven across minutes of simulated time in microseconds of test time.

constexpr std::uint64_t kSec = 1'000'000'000ull;

TEST_F(MetricsTest, WindowRotationAcrossSimulatedClock) {
  const std::uint64_t t0 = 100'000 * kSec;
  m::record_call_at(t0, m::EntryPoint::kKernelF64, 0, 1000, 8, 8, 2, 1);
  m::record_call_at(t0 + 5 * kSec, m::EntryPoint::kKernelF64,
                    9 /* cancelled */, 2000, 8, 8, 2, 1);

  m::MetricsSnapshot s = m::snapshot_at(t0 + 5 * kSec);
  EXPECT_EQ(s.window_calls(), 2u);
  EXPECT_EQ(s.window_errors(), 1u);
  EXPECT_DOUBLE_EQ(s.window_error_rate(), 0.5);

  // 30s on: both samples still inside the 60s window.
  EXPECT_EQ(m::snapshot_at(t0 + 30 * kSec).window_calls(), 2u);

  // 62s after t0 the first sample has aged out; the error remains.
  s = m::snapshot_at(t0 + 62 * kSec);
  EXPECT_EQ(s.window_calls(), 1u);
  EXPECT_EQ(s.window_errors(), 1u);
  EXPECT_DOUBLE_EQ(s.window_error_rate(), 1.0);

  // Past both: the window is empty while the cumulative registry keeps all.
  s = m::snapshot_at(t0 + 70 * kSec);
  EXPECT_EQ(s.window_calls(), 0u);
  EXPECT_DOUBLE_EQ(s.window_error_rate(), 0.0);
  EXPECT_EQ(s.calls_total(m::EntryPoint::kKernelF64), 2u);

  // One full lap later the t0 slot is reused: rotation must zero the old
  // lap's samples, not add to them.
  m::record_call_at(t0 + 60 * kSec, m::EntryPoint::kKernelF64, 0, 500, 8, 8,
                    2, 1);
  s = m::snapshot_at(t0 + 60 * kSec);
  EXPECT_EQ(s.window_calls(), 2u);  // the new sample + the t0+5s error
  EXPECT_EQ(s.window_errors(), 1u);
}

// Regression: slots only get their epoch refreshed by record(), so after a
// >60s idle gap a scrape used to carry the last burst's raw slots in the
// snapshot (window_epoch/window_status still populated with a previous
// lap's seconds) — the JSON/prom "series" export and any consumer reading
// the raw arrays saw stale buckets as current. snapshot_at must rotate on
// read: dead slots come back zeroed, not merely filtered by the helpers.
TEST_F(MetricsTest, IdleGapZeroesRawWindowSlotsOnRead) {
  const std::uint64_t t0 = 300'000 * kSec;
  for (int i = 0; i < 10; ++i) {
    m::record_call_at(t0 + static_cast<std::uint64_t>(i) * kSec,
                      m::EntryPoint::kKernelF64, 0, 1000, 8, 8, 2, 1);
  }
  // Sanity: the burst is visible while fresh.
  EXPECT_EQ(m::snapshot_at(t0 + 9 * kSec).window_calls(), 10u);

  // 2 minutes of idle: every slot has aged out. The RAW snapshot arrays —
  // not just the window_calls() helper — must report an empty ring.
  const m::MetricsSnapshot s = m::snapshot_at(t0 + 120 * kSec);
  EXPECT_EQ(s.window_calls(), 0u);
  for (int i = 0; i < m::kWindowBuckets; ++i) {
    EXPECT_EQ(s.window_epoch[i], 0u) << "slot " << i << " carries a stale "
                                     << "epoch after the idle gap";
    EXPECT_FALSE(s.window_slot_live(i)) << "slot " << i;
    for (int st = 0; st < m::kStatusCount; ++st) {
      EXPECT_EQ(s.window_status[i][st], 0u) << "slot " << i;
    }
  }
  // The cumulative registry is unaffected by window expiry.
  EXPECT_EQ(s.calls_total(m::EntryPoint::kKernelF64), 10u);
}

// Regression: a slot stamped in the future (clock damage, or a test driving
// the *_at hooks badly) was live FOREVER — `epoch >= now` never ages out.
// One second of skew stays tolerated; anything further is dropped.
TEST_F(MetricsTest, FarFutureSlotIsDroppedNotEternal) {
  const std::uint64_t t0 = 400'000 * kSec;
  m::record_call_at(t0 + 400 * kSec, m::EntryPoint::kKernelF64, 0, 1000, 8,
                    8, 2, 1);
  // Scraped "now": 200s before the rogue stamp. The slot must not read as
  // current traffic.
  const m::MetricsSnapshot far = m::snapshot_at(t0 + 200 * kSec);
  EXPECT_EQ(far.window_calls(), 0u);
  for (int i = 0; i < m::kWindowBuckets; ++i) {
    EXPECT_EQ(far.window_epoch[i], 0u) << "slot " << i;
  }
  // One second of recording-thread skew is still within tolerance.
  m::reset();
  m::record_call_at(t0 + kSec, m::EntryPoint::kKernelF64, 0, 1000, 8, 8, 2,
                    1);
  EXPECT_EQ(m::snapshot_at(t0).window_calls(), 1u);
}

TEST_F(MetricsTest, WindowSeriesReconcilesWithHeadline) {
  const std::uint64_t t0 = 200'000 * kSec;
  for (int i = 0; i < 12; ++i) {
    m::record_call_at(t0 + static_cast<std::uint64_t>(i % 3) * kSec,
                      m::EntryPoint::kBatch, i % 4 == 0 ? 8 : 0, 1u << 14, 4,
                      4, 2, 1);
  }
  const m::MetricsSnapshot s = m::snapshot_at(t0 + 3 * kSec);
  // Live-slot totals (what to_json's "series" renders) must equal the
  // headline window aggregates — the same reconciliation check_metrics.py
  // applies to the export.
  std::uint64_t series_calls = 0, series_errors = 0, series_hist = 0;
  for (int i = 0; i < m::kWindowBuckets; ++i) {
    if (!s.window_slot_live(i)) continue;
    for (int st = 0; st < m::kStatusCount; ++st) {
      series_calls += s.window_status[i][st];
      if (st != 0) series_errors += s.window_status[i][st];
    }
    for (int b = 0; b < m::kHistBuckets; ++b) {
      series_hist += s.window_latency[i][b];
    }
  }
  EXPECT_EQ(series_calls, 12u);
  EXPECT_EQ(s.window_calls(), 12u);
  EXPECT_EQ(s.window_errors(), series_errors);
  EXPECT_EQ(series_hist, 12u);  // one latency sample per windowed call
}

TEST_F(MetricsTest, WindowWriterStormReconcilesWithCumulative) {
  // 40 threads hammer the same simulated second from every shard class
  // (owned slots + the shared overflow shard); afterwards the window and
  // the cumulative registry must agree exactly. Run under tsan via
  // `ctest -L observability`.
  constexpr int kThreads = 40;
  constexpr int kPer = 500;
  const std::uint64_t t0 = 300'000 * kSec;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&go, t, t0] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPer; ++i) {
        m::record_call_at(t0, m::EntryPoint::kParallelRefs,
                          t % 2 == 0 ? 0 : 9,
                          static_cast<std::uint64_t>(1) << (t % 16), 16, 16,
                          4, 2);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : writers) w.join();

  const m::MetricsSnapshot s = m::snapshot_at(t0);
  const std::uint64_t total = static_cast<std::uint64_t>(kThreads) * kPer;
  EXPECT_EQ(s.calls_total(m::EntryPoint::kParallelRefs), total);
  EXPECT_EQ(s.window_calls(), total);
  EXPECT_EQ(s.window_errors(), total / 2);
  std::uint64_t hist = 0;
  for (int i = 0; i < m::kWindowBuckets; ++i) {
    if (!s.window_slot_live(i)) continue;
    for (int b = 0; b < m::kHistBuckets; ++b) hist += s.window_latency[i][b];
  }
  EXPECT_EQ(hist, total);
}

TEST_F(MetricsTest, WindowQuantileAndBurnRateMath) {
  // Default SLO: latency target 100ms at p99, availability 99.9%.
  const std::uint64_t t0 = 400'000 * kSec;
  const std::uint64_t fast = 1'000'000;    // 1ms, within target
  const std::uint64_t slow = 200'000'000;  // 200ms, breaches target
  for (int i = 0; i < 93; ++i) {
    m::record_call_at(t0, m::EntryPoint::kKernelF64, 0, fast, 8, 8, 2, 1);
  }
  for (int i = 0; i < 5; ++i) {
    m::record_call_at(t0, m::EntryPoint::kKernelF64, 0, slow, 8, 8, 2, 1);
  }
  for (int i = 0; i < 2; ++i) {
    m::record_call_at(t0, m::EntryPoint::kKernelF64, 9, fast, 8, 8, 2, 1);
  }
  const m::MetricsSnapshot s = m::snapshot_at(t0);
  ASSERT_EQ(s.window_calls(), 100u);
  // Quantiles report the log2-bucket upper edge (<= 2x overestimate).
  EXPECT_EQ(s.window_latency_quantile_ns(0.5), std::uint64_t{1} << 20);
  EXPECT_EQ(s.window_latency_quantile_ns(0.99), std::uint64_t{1} << 28);
  // 5/100 calls missed the 100ms target; the p99 SLO allows 1%, so the
  // burn rate is 5x the budget. 2/100 errors against a 0.1% budget = 20x.
  EXPECT_NEAR(s.window_latency_burn_rate(), 5.0, 1e-9);
  EXPECT_NEAR(s.window_availability_burn_rate(), 20.0, 1e-9);
}

TEST_F(MetricsTest, WindowMergeAlignsByEpoch) {
  const std::uint64_t t0 = 500'000 * kSec;
  m::record_call_at(t0, m::EntryPoint::kLsh, 0, 1000, 4, 4, 2, 1);
  const m::MetricsSnapshot a = m::snapshot_at(t0);
  m::reset();
  // The other process observed the same second plus a newer one.
  m::record_call_at(t0, m::EntryPoint::kLsh, 9, 2000, 4, 4, 2, 1);
  m::record_call_at(t0 + kSec, m::EntryPoint::kLsh, 0, 3000, 4, 4, 2, 1);
  const m::MetricsSnapshot b = m::snapshot_at(t0 + kSec);

  m::MetricsSnapshot into_newer = b;
  into_newer.merge(a);
  // Same-epoch slots add; b's extra slot rides along untouched.
  EXPECT_EQ(into_newer.window_calls(), 3u);
  EXPECT_EQ(into_newer.window_errors(), 1u);
  EXPECT_EQ(into_newer.calls_total(m::EntryPoint::kLsh), 3u);

  // Merging the newer snapshot into the older one must adopt the newer
  // epoch's slots (copy, not add) rather than corrupt the older lap.
  m::MetricsSnapshot into_older = a;
  into_older.merge(b);
  EXPECT_EQ(into_older.window_calls(), 3u);
  EXPECT_EQ(into_older.window_errors(), 1u);
}

}  // namespace
}  // namespace gsknn
