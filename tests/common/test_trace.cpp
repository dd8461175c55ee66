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

// ---- producer contract -----------------------------------------------------
//
// Every kernel layer reports one call through two sinks at once: the spans a
// TraceSink records and the KernelProfile's phase times. The cases below pin
// both for each producer — the exact span list (phase name and a/b args) at
// threads = 1 with fixed blocking, which phases carry time, that the
// attributed phases fit inside the wall, and that the PMU flag follows the
// host.

/// Every X span of `sink` as `name{args}` (args as serialized), sorted.
std::vector<std::string> span_list(const TraceSink& sink) {
  const std::string j = sink.to_json();
  std::vector<std::string> out;
  const std::string x = "\"ph\":\"X\"";
  for (std::size_t at = j.find(x); at != std::string::npos;
       at = j.find(x, at + 1)) {
    const std::size_t open = j.rfind('{', at);
    const std::size_t name = j.find("\"name\":\"", open) + 8;
    std::string s = j.substr(name, j.find('"', name) - name);
    const std::size_t end = j.find('}', at);
    const std::size_t args = j.find("\"args\":", at);
    if (args != std::string::npos && args < end) {
      s += j.substr(args + 7, j.find('}', args) - args - 6);
    }
    out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string span(const char* name, const char* a, int av, const char* b,
                 int bv) {
  return std::string(name) + "{\"" + a + "\":" + std::to_string(av) + ",\"" +
         b + "\":" + std::to_string(bv) + "}";
}

/// The small cache blocks every contract case runs with: two jc panels, two
/// depth blocks and two query blocks on the base shape below.
BlockingParams contract_blocking() {
  BlockingParams bp = default_blocking(cpu_features().best_level());
  bp.nc = 128;
  bp.dc = 8;
  bp.mc = 32;
  return bp;
}

/// The spans one single-threaded fused kernel call over m × n (dimension d)
/// records with contract_blocking(): pack_r per (jc, pc), pack_q and micro
/// per (jc, pc, ic), and the Var#5 row selection per jc.
void add_kernel_spans(std::vector<std::string>& out, int m, int n, int d,
                      Variant v) {
  const BlockingParams bp = contract_blocking();
  for (int jc = 0; jc < n; jc += bp.nc) {
    for (int pc = 0; pc < d; pc += bp.dc) {
      out.push_back(span("pack_r", "jc", jc, "pc", pc));
      for (int ic = 0; ic < m; ic += bp.mc) {
        out.push_back(span("pack_q", "ic", ic, "pc", pc));
        out.push_back(span("micro", "ic", ic, "jc", jc));
      }
    }
    if (v == Variant::kVar5) out.push_back("select{\"jc\":" + std::to_string(jc) + "}");
  }
}

/// Phases with non-zero time in `prof`, by name.
std::vector<std::string> timed_phases(const telemetry::KernelProfile& prof) {
  std::vector<std::string> out;
  for (int p = 0; p < telemetry::kPhaseCount; ++p) {
    if (prof.phase_seconds[p] > 0.0) {
      out.emplace_back(telemetry::phase_name(static_cast<Phase>(p)));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

class ProducerContract : public ::testing::Test {
 protected:
  static constexpr int kM = 64, kN = 256, kD = 16, kK = 8;

  void SetUp() override {
    X_ = make_uniform(kD, kM + kN, 0xC0DE);
    q_.resize(kM);
    r_.resize(kN);
    std::iota(q_.begin(), q_.end(), 0);
    std::iota(r_.begin(), r_.end(), kM);
    cfg_.threads = 1;
    cfg_.blocking = contract_blocking();
    cfg_.profile = &prof_;
    cfg_.trace = &sink_;
  }

  /// The checks every producer shares once the spans and phases match.
  void expect_contract(std::vector<std::string> spans,
                       std::vector<std::string> phases) {
    std::sort(spans.begin(), spans.end());
    std::sort(phases.begin(), phases.end());
    EXPECT_EQ(span_list(sink_), spans);
    EXPECT_EQ(timed_phases(prof_), phases);
    EXPECT_GT(prof_.wall_seconds, 0.0);
    EXPECT_LE(prof_.phase_total(), prof_.wall_seconds);
    EXPECT_EQ(prof_.pmu_enabled, telemetry::pmu_available());
  }

  PointTable X_;
  std::vector<int> q_, r_;
  KnnConfig cfg_;
  telemetry::KernelProfile prof_;
  TraceSink sink_{256};
};

TEST_F(ProducerContract, KernelVar1) {
  cfg_.variant = Variant::kVar1;
  NeighborTable t(kM, kK);
  knn_kernel(X_, q_, r_, t, cfg_);
  std::vector<std::string> spans;
  add_kernel_spans(spans, kM, kN, kD, Variant::kVar1);
  expect_contract(spans, {"pack_q", "pack_r", "micro"});
}

TEST_F(ProducerContract, KernelVar5) {
  cfg_.variant = Variant::kVar5;
  NeighborTable t(kM, kK);
  knn_kernel(X_, q_, r_, t, cfg_);
  std::vector<std::string> spans;
  add_kernel_spans(spans, kM, kN, kD, Variant::kVar5);
  expect_contract(spans, {"pack_q", "pack_r", "micro", "select"});
}

TEST_F(ProducerContract, GemmBaseline) {
  NeighborTable t(kM, kK);
  knn_gemm_baseline(X_, q_, r_, t, cfg_);
  expect_contract({span("collect", "m", kM, "n", kN),
                   span("micro", "ic", kM, "jc", kN),
                   span("sq2d", "m", kM, "n", kN),
                   span("select", "ic", kM, "jc", kN)},
                  {"collect", "micro", "sq2d", "select"});
}

TEST_F(ProducerContract, ParallelRefs) {
  constexpr int kThreads = 4;
  if (resolve_threads(kThreads) < kThreads) {
    GTEST_SKIP() << "no OpenMP: parallel_refs runs the plain kernel";
  }
  cfg_.threads = kThreads;
  NeighborTable t(kM, kK);
  knn_kernel_parallel_refs(X_, q_, r_, t, cfg_);
  // Each worker runs the single-threaded kernel over its kN / 4 slice; the
  // merge records one span per team thread.
  std::vector<std::string> spans;
  for (int w = 0; w < kThreads; ++w) {
    add_kernel_spans(spans, kM, kN / kThreads, kD, Variant::kVar1);
    spans.push_back("merge");
  }
  expect_contract(spans, {"pack_q", "pack_r", "micro", "merge"});
}

TEST_F(ProducerContract, Batch) {
  // Two tasks on disjoint rows of one table, different shapes.
  NeighborTable t(kM, kK);
  const std::span<const int> q(q_), r(r_);
  std::vector<int> rows1(kM / 2);
  std::iota(rows1.begin(), rows1.end(), kM / 2);
  const KnnTask tasks[] = {
      {q.first(kM / 2), r.first(kN / 2), &t, {}},
      {q.last(kM / 2), r, &t, rows1},
  };
  knn_batch(X_, tasks, kK, cfg_);
  std::vector<std::string> spans;
  add_kernel_spans(spans, kM / 2, kN / 2, kD, Variant::kVar1);
  add_kernel_spans(spans, kM / 2, kN, kD, Variant::kVar1);
  expect_contract(spans, {"pack_q", "pack_r", "micro"});
}

}  // namespace
}  // namespace gsknn
