// Trace-event export (gsknn/common/trace.hpp): span recording, thread
// attribution, ring overflow accounting, and the Chrome trace_event JSON
// contract. The full schema validation lives in tools/check_trace.py (the
// `trace_check` ctest); here the serializer's structural guarantees are
// checked directly — span/track accounting, nesting of timestamps, the
// overflow bookkeeping and the env-configured ring size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <latch>
#include <utility>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "gsknn/common/trace.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/data/generators.hpp"

namespace gsknn {
namespace {

using telemetry::Phase;
using telemetry::trace_now;
using telemetry::TraceSink;
using telemetry::TraceSpan;

/// Extract ("ts", "dur") of the first event named `name`; fails the test
/// when the event is absent.
std::pair<double, double> find_event(const std::string& json,
                                     const std::string& name) {
  const std::string needle = "\"name\":\"" + name + "\"";
  const std::size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << "no event " << name << " in " << json;
  if (at == std::string::npos) return {0.0, 0.0};
  double ts = -1.0, dur = -1.0;
  std::sscanf(json.c_str() + json.find("\"ts\":", at), "\"ts\":%lf", &ts);
  std::sscanf(json.c_str() + json.find("\"dur\":", at), "\"dur\":%lf", &dur);
  return {ts, dur};
}

TEST(TraceSinkTest, RecordsAndCounts) {
  TraceSink sink(64);
  EXPECT_EQ(sink.span_count(), 0u);
  EXPECT_EQ(sink.thread_tracks(), 0);
  const std::uint64_t t0 = trace_now();
  sink.record(Phase::kPackR, t0, trace_now(), 3, 0);
  sink.record(Phase::kMicro, t0, trace_now());
  EXPECT_EQ(sink.span_count(), 2u);
  EXPECT_EQ(sink.thread_tracks(), 1);
  EXPECT_EQ(sink.dropped_spans(), 0u);

  sink.reset();
  EXPECT_EQ(sink.span_count(), 0u);
  EXPECT_EQ(sink.thread_tracks(), 1);  // tracks stay claimed
}

TEST(TraceSinkTest, SinkAddressReuseStartsFromEmptyRings) {
  // Sequential sinks at the same stack address: each new sink must start
  // from its own empty rings, never a destroyed sink's track, which would
  // silently drop or misattribute every span of the new sink.
  for (int i = 0; i < 3; ++i) {
    TraceSink sink(16);
    const std::uint64_t t0 = trace_now();
    sink.record(Phase::kMicro, t0, trace_now());
    EXPECT_EQ(sink.span_count(), 1u) << "iteration " << i;
    EXPECT_EQ(sink.dropped_spans(), 0u) << "iteration " << i;
  }
}

TEST(TraceSinkTest, SpanNestingSurvivesSerialization) {
  TraceSink sink(64);
  // outer [t0 ... t3] strictly contains inner [t1 ... t2].
  const std::uint64_t t0 = trace_now();
  const std::uint64_t t1 = t0 + 1000;
  const std::uint64_t t2 = t0 + 2000;
  const std::uint64_t t3 = t0 + 4000;
  sink.record(Phase::kSelect, t1, t2, 0, 0);  // inner
  sink.record(Phase::kMicro, t0, t3, 0, 0);   // outer
  const std::string j = sink.to_json();

  const auto [inner_ts, inner_dur] = find_event(j, "select");
  const auto [outer_ts, outer_dur] = find_event(j, "micro");
  ASSERT_GE(inner_dur, 0.0);
  ASSERT_GE(outer_dur, 0.0);
  // The tick->us map is linear, so containment must survive export (tiny
  // epsilon for the %.3f rounding in the serializer).
  const double eps = 2e-3;
  EXPECT_GE(inner_ts + eps, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur + eps);
  EXPECT_GE(outer_dur + eps, inner_dur);
}

TEST(TraceSinkTest, ThreadsGetDistinctTracks) {
  // Tracks follow registry thread slots, which exited threads give back, so
  // only threads alive at the same time are guaranteed distinct tracks: hold
  // all three on a latch until each has recorded.
  TraceSink sink(64);
  constexpr int kThreads = 3;
  std::latch recorded(kThreads);
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&sink, &recorded] {
      const std::uint64_t t0 = trace_now();
      sink.record(Phase::kMicro, t0, trace_now(), 1, 2);
      recorded.arrive_and_wait();
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(sink.thread_tracks(), kThreads);
  EXPECT_EQ(sink.span_count(), static_cast<std::uint64_t>(kThreads));
  const std::string j = sink.to_json();
  // One thread_name metadata record per track, tids 0..kThreads-1.
  for (int t = 0; t < kThreads; ++t) {
    const std::string track = "\"args\":{\"name\":\"omp-" + std::to_string(t) + "\"}";
    EXPECT_NE(j.find(track), std::string::npos) << "missing track " << t;
  }
}

TEST(TraceSinkTest, RingOverflowDropsOldestAndCounts) {
  // 1 KB ring = 1024 / sizeof(TraceSpan) spans per thread.
  TraceSink sink(1);
  const auto capacity =
      static_cast<std::uint64_t>(1024 / sizeof(TraceSpan));
  const std::uint64_t total = capacity + 57;
  const std::uint64_t base = trace_now();
  for (std::uint64_t i = 0; i < total; ++i) {
    // Spans carry their sequence number in `a` so survivors are checkable.
    sink.record(Phase::kMicro, base + i, base + i + 1,
                static_cast<int>(i), 0);
  }
  EXPECT_EQ(sink.span_count(), capacity);
  EXPECT_EQ(sink.dropped_spans(), total - capacity);
  // Drop-oldest: the very first span is gone, the last one survives.
  const std::string j = sink.to_json();
  EXPECT_EQ(j.find("\"ic\":0,"), std::string::npos);
  EXPECT_NE(j.find("\"ic\":" + std::to_string(total - 1)), std::string::npos);
  // The metadata reports the loss.
  EXPECT_NE(j.find("\"dropped_spans\":" + std::to_string(total - capacity)),
            std::string::npos);
}

TEST(TraceSinkTest, EnvRingSizeIsHonored) {
  ::setenv("GSKNN_TRACE_RING_KB", "32", 1);
  TraceSink sink(0);  // 0 = read the environment
  ::unsetenv("GSKNN_TRACE_RING_KB");
  EXPECT_EQ(sink.ring_kb(), 32u);
  TraceSink fixed(8);  // explicit size beats the env
  EXPECT_EQ(fixed.ring_kb(), 8u);
}

TEST(TraceSinkTest, JsonSkeletonIsComplete) {
  TraceSink sink(16);
  const std::uint64_t t0 = trace_now();
  sink.record(Phase::kPackQ, t0, trace_now(), 0, 0);
  const std::string j = sink.to_json();
  for (const char* key :
       {"\"displayTimeUnit\":\"ms\"", "\"traceEvents\":[", "\"otherData\":{",
        "\"ring_kb\":16", "\"spans\":1", "\"thread_tracks\":1", "\"clock\":",
        "\"ticks_per_us\":", "\"ph\":\"X\"", "\"ph\":\"M\"",
        "\"cat\":\"gsknn\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << "missing " << key;
  }
  // Balanced braces/brackets — cheap structural sanity; the Python
  // validator in tools/check_trace.py does the full parse.
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(std::count(j.begin(), j.end(), '['),
            std::count(j.begin(), j.end(), ']'));
}

// End-to-end: a traced kernel invocation produces pack/micro spans and a
// parseable file, and an un-traced one records nothing.
TEST(TraceKernelTest, KernelEmitsSpans) {
  const int m = 64, n = 256, d = 16, k = 8;
  const PointTable X = make_uniform(d, m + n, 0xCAFE);
  std::vector<int> q(m), r(n);
  std::iota(q.begin(), q.end(), 0);
  std::iota(r.begin(), r.end(), m);

  TraceSink sink(256);
  KnnConfig cfg;
  cfg.threads = 1;
  cfg.trace = &sink;
  NeighborTable t(m, k);
  knn_kernel(X, q, r, t, cfg);

  EXPECT_GT(sink.span_count(), 0u);
  EXPECT_GE(sink.thread_tracks(), 1);
  const std::string j = sink.to_json();
  EXPECT_NE(j.find("\"name\":\"pack_r\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"pack_q\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"micro\""), std::string::npos);

  // write_json round trip.
  const std::string path = ::testing::TempDir() + "gsknn_trace_test.json";
  ASSERT_TRUE(sink.write_json(path.c_str()));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(static_cast<std::size_t>(std::ftell(f)), j.size());
  std::fclose(f);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gsknn
