// Flight-recorder contract (gsknn/common/flightrec.hpp): record/drain round
// trip preserves every field; overflow keeps the newest kRingCapacity events
// and accounts the rest in dropped(); disarmed record() is a no-op; the
// one-shot non-OK trigger latches and rearms; the JSON-lines dump matches
// the schema tools/check_diag.py validates, and the signal-path dump streams
// the same event lines; a 40-thread writer storm stays consistent (run under
// tsan via `ctest -L observability`); and the tree solvers record their
// call_begin/call_end pair like every other entry point, whether or not the
// metrics registry is armed.
#include "gsknn/common/flightrec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gsknn/common/cancel.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/data/generators.hpp"
#include "gsknn/tree/lsh.hpp"
#include "gsknn/tree/rkd_forest.hpp"

namespace fr = gsknn::flightrec;

namespace {

/// Every test starts from an empty, armed recorder with a consumed-trigger
/// state it controls.
class FlightRecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = fr::enabled();
    fr::set_enabled(true);
    fr::clear();
  }
  void TearDown() override {
    fr::clear();
    fr::set_enabled(was_enabled_);
  }
  bool was_enabled_ = false;
};

TEST_F(FlightRecTest, RecordDrainRoundTripPreservesFields) {
  fr::record(fr::Kind::kCallEnd, /*entry=*/1, /*status=*/8, /*value=*/123456,
             64, 128, 16, 8);
  const std::vector<fr::Event> events = fr::drain();
  ASSERT_EQ(events.size(), 1u);
  const fr::Event& ev = events[0];
  EXPECT_EQ(ev.kind, fr::Kind::kCallEnd);
  EXPECT_EQ(ev.entry, 1);
  EXPECT_EQ(ev.status, 8);
  EXPECT_EQ(ev.value, 123456u);
  EXPECT_EQ(ev.m, 64u);
  EXPECT_EQ(ev.n, 128u);
  EXPECT_EQ(ev.d, 16u);
  EXPECT_EQ(ev.k, 8u);
  EXPECT_GT(ev.t_ns, 0u);
  EXPECT_GE(ev.thread_slot, 0);
}

TEST_F(FlightRecTest, DrainIsOldestFirstAndNonDestructive) {
  for (int i = 0; i < 10; ++i) {
    fr::record(fr::Kind::kRetile, -1, 0, static_cast<std::uint64_t>(i));
  }
  const std::vector<fr::Event> first = fr::drain();
  ASSERT_EQ(first.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(first[static_cast<std::size_t>(i)].value,
              static_cast<std::uint64_t>(i));
  }
  // A second drain sees the same events: draining is a snapshot, not a
  // consuming read (the diag bundle and a later crash dump both drain).
  EXPECT_EQ(fr::drain().size(), 10u);
}

TEST_F(FlightRecTest, OverflowKeepsNewestAndCountsDropped) {
  const int total = fr::kRingCapacity + 300;
  for (int i = 0; i < total; ++i) {
    fr::record(fr::Kind::kPackUpdate, -1, 0, static_cast<std::uint64_t>(i));
  }
  const std::vector<fr::Event> events = fr::drain();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(fr::kRingCapacity));
  // The ring retains the newest kRingCapacity events, still oldest-first.
  EXPECT_EQ(events.front().value, 300u);
  EXPECT_EQ(events.back().value, static_cast<std::uint64_t>(total - 1));
  EXPECT_EQ(fr::dropped(), 300u);
}

TEST_F(FlightRecTest, DisarmedRecordIsDropFreeNoOp) {
  fr::set_enabled(false);
  EXPECT_FALSE(fr::enabled());
  for (int i = 0; i < 100; ++i) {
    fr::record(fr::Kind::kFault, -1, 0, 1);
  }
  EXPECT_TRUE(fr::drain().empty());
  // Disarmed events are suppressed, not "lost": dropped() stays zero.
  EXPECT_EQ(fr::dropped(), 0u);
  fr::set_enabled(true);
  fr::record(fr::Kind::kFault, -1, 0, 2);
  EXPECT_EQ(fr::drain().size(), 1u);
}

TEST_F(FlightRecTest, ClearForgetsEventsAndDropCount) {
  for (int i = 0; i < fr::kRingCapacity + 5; ++i) {
    fr::record(fr::Kind::kRetile, -1, 0, 0);
  }
  EXPECT_GT(fr::dropped(), 0u);
  fr::clear();
  EXPECT_TRUE(fr::drain().empty());
  EXPECT_EQ(fr::dropped(), 0u);
}

TEST_F(FlightRecTest, TriggerMaskLatchesOncePerArming) {
  const std::uint32_t saved_mask = fr::trigger_mask();
  fr::set_trigger_mask(~1u);  // all non-OK statuses
  fr::rearm_trigger();

  static std::atomic<int> hook_calls{0};
  static std::string hook_reason;
  hook_calls.store(0);
  fr::set_dump_hook(+[](const char*, const char* reason) {
    hook_calls.fetch_add(1);
    hook_reason = reason;
    return true;
  });

  // OK completions never trigger.
  fr::record(fr::Kind::kCallEnd, 0, 0, 100);
  EXPECT_EQ(hook_calls.load(), 0);
  EXPECT_FALSE(fr::trigger_fired());

  // First masked non-OK completion fires exactly once...
  fr::record(fr::Kind::kCallEnd, 0, /*status=*/9, 100);
  EXPECT_EQ(hook_calls.load(), 1);
  EXPECT_TRUE(fr::trigger_fired());
  EXPECT_EQ(hook_reason, "status_trigger:cancelled");

  // ...and stays latched for later failures until rearmed.
  fr::record(fr::Kind::kCallEnd, 0, 9, 100);
  EXPECT_EQ(hook_calls.load(), 1);
  fr::rearm_trigger();
  fr::record(fr::Kind::kCallEnd, 0, 8, 100);
  EXPECT_EQ(hook_calls.load(), 2);
  EXPECT_EQ(hook_reason, "status_trigger:deadline_exceeded");

  // A masked-out status never fires.
  fr::rearm_trigger();
  fr::set_trigger_mask(1u << 9);  // cancelled only
  fr::record(fr::Kind::kCallEnd, 0, 8, 100);
  EXPECT_EQ(hook_calls.load(), 2);
  EXPECT_FALSE(fr::trigger_fired());

  fr::set_dump_hook(nullptr);
  fr::set_trigger_mask(saved_mask);
  fr::rearm_trigger();
}

TEST_F(FlightRecTest, DumpJsonMatchesSchema) {
  fr::record(fr::Kind::kCallBegin, 0, 0, 0, 32, 32, 8, 4);
  fr::record(fr::Kind::kCallEnd, 0, 0, 5000, 32, 32, 8, 4);
  const std::string dump = fr::dump_json("unit_test");
  // Header line first, one event object per following line.
  ASSERT_FALSE(dump.empty());
  EXPECT_EQ(dump.find("{\"flightrec_version\":1,"), 0u);
  EXPECT_NE(dump.find("\"reason\":\"unit_test\""), std::string::npos);
  EXPECT_NE(dump.find("\"events\":2"), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"call_begin\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"call_end\""), std::string::npos);
  EXPECT_NE(dump.find("\"entry\":\"kernel_f64\""), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(dump.begin(), dump.end(), '\n')),
            3u);  // header + 2 events, each newline-terminated
}

TEST_F(FlightRecTest, SignalPathDumpMatchesDumpJson) {
  // One thread, so dump_to_fd's slot-by-slot stream is already in
  // dump_json's time order and the event lines must match byte for byte.
  fr::record(fr::Kind::kCallBegin, 0, 0, 0, 32, 64, 8, 4);
  fr::record(fr::Kind::kFault, -1, 0, std::uint64_t{1} << 40);
  fr::record(fr::Kind::kCallEnd, 1, 0, 5000, 32, 64, 8, 4);
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  fr::dump_to_fd(fileno(f), "unit_test");
  const std::string json = fr::dump_json("unit_test");
  std::rewind(f);
  std::string streamed;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    streamed.append(buf, n);
  }
  std::fclose(f);

  const std::size_t streamed_eol = streamed.find('\n');
  const std::size_t json_eol = json.find('\n');
  ASSERT_NE(streamed_eol, std::string::npos);
  ASSERT_NE(json_eol, std::string::npos);
  EXPECT_EQ(streamed.substr(0, streamed_eol),
            "{\"flightrec_version\":1,\"reason\":\"unit_test\","
            "\"dropped\":0,\"events\":-1}");
  EXPECT_NE(json.substr(0, json_eol).find("\"events\":3}"), std::string::npos);
  const std::string events = streamed.substr(streamed_eol + 1);
  EXPECT_EQ(events, json.substr(json_eol + 1));
  EXPECT_EQ(std::count(events.begin(), events.end(), '\n'), 3);
}

TEST_F(FlightRecTest, KindNamesAreStable) {
  // Pinned: these strings are the dump schema (tools/check_diag.py).
  EXPECT_STREQ(fr::kind_name(fr::Kind::kCallBegin), "call_begin");
  EXPECT_STREQ(fr::kind_name(fr::Kind::kCallEnd), "call_end");
  EXPECT_STREQ(fr::kind_name(fr::Kind::kRetile), "retile");
  EXPECT_STREQ(fr::kind_name(fr::Kind::kDeadline), "deadline");
  EXPECT_STREQ(fr::kind_name(fr::Kind::kCancel), "cancel");
  EXPECT_STREQ(fr::kind_name(fr::Kind::kPackEvict), "pack_evict");
  EXPECT_STREQ(fr::kind_name(fr::Kind::kPackUpdate), "pack_update");
  EXPECT_STREQ(fr::kind_name(fr::Kind::kStaleReject), "stale_reject");
  EXPECT_STREQ(fr::kind_name(fr::Kind::kFault), "fault");
}

TEST_F(FlightRecTest, WriterStormWithConcurrentDrains) {
  // 40 writers each record a known count while the main thread drains
  // concurrently (the no-slot drop path is covered by ThreadSlots.
  // MoreLiveThreadsThanSlots). Under tsan this is the data-race probe; the
  // post-join invariant is retained + dropped == recorded.
  constexpr int kThreads = 40;
  constexpr int kPerThread = 200;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        fr::record(fr::Kind::kPackUpdate, -1, 0,
                   static_cast<std::uint64_t>(t * kPerThread + i));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (int i = 0; i < 50; ++i) {
    (void)fr::drain();  // must be race-free against live writers
  }
  for (std::thread& w : writers) w.join();

  const std::vector<fr::Event> events = fr::drain();
  EXPECT_EQ(events.size() + fr::dropped(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  // Each surviving event is one of the recorded payloads, and within one
  // thread slot the sequence numbers are strictly increasing.
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].thread_slot == events[i - 1].thread_slot) {
      EXPECT_GT(events[i].seq, events[i - 1].seq);
    }
  }
}

/// Events of one kind recorded under entry point `ep`.
int count_events(const std::vector<fr::Event>& events, fr::Kind kind,
                 gsknn::metrics::EntryPoint ep) {
  return static_cast<int>(
      std::count_if(events.begin(), events.end(), [&](const fr::Event& e) {
        return e.kind == kind && e.entry == static_cast<int>(ep);
      }));
}

// The flight recorder is gated on its own switch only: with the metrics
// registry disarmed, each tree-solver call still leaves exactly one
// call_begin/call_end pair under its own entry point.
TEST_F(FlightRecTest, TreeSolversRecordOnePairWithMetricsDisarmed) {
  namespace m = gsknn::metrics;
  const bool metrics_was_enabled = m::enabled();
  m::set_enabled(false);
  const gsknn::PointTable X = gsknn::make_uniform(8, 300, 0xF17);

  gsknn::tree::RkdConfig rkd;
  rkd.leaf_size = 64;
  rkd.num_trees = 2;
  rkd.kernel.threads = 1;
  EXPECT_EQ(gsknn::tree::all_nearest_neighbors(X, 4, rkd).status,
            gsknn::Status::kOk);
  std::vector<fr::Event> events = fr::drain();
  EXPECT_EQ(count_events(events, fr::Kind::kCallBegin,
                         m::EntryPoint::kRkdForest),
            1);
  EXPECT_EQ(
      count_events(events, fr::Kind::kCallEnd, m::EntryPoint::kRkdForest),
      1);

  fr::clear();
  gsknn::tree::LshConfig lsh;
  lsh.tables = 2;
  lsh.max_group = 64;
  lsh.kernel.threads = 1;
  EXPECT_EQ(gsknn::tree::lsh_all_nearest_neighbors(X, 4, lsh).status,
            gsknn::Status::kOk);
  events = fr::drain();
  EXPECT_EQ(count_events(events, fr::Kind::kCallBegin, m::EntryPoint::kLsh),
            1);
  EXPECT_EQ(count_events(events, fr::Kind::kCallEnd, m::EntryPoint::kLsh), 1);

  m::set_enabled(metrics_was_enabled);
}

// A solve whose cancel token fired before the call reports kCancelled in
// its result, and the recorder's last word on it is the solver's own
// call_end carrying that status (not just the leaf kernel's).
TEST_F(FlightRecTest, CancelledTreeSolveEndsWithCancelledCallEnd) {
  const gsknn::PointTable X = gsknn::make_uniform(8, 300, 0xF18);
  gsknn::CancelToken token;
  token.cancel();
  gsknn::tree::RkdConfig rkd;
  rkd.leaf_size = 64;
  rkd.num_trees = 2;
  rkd.kernel.threads = 1;
  rkd.kernel.cancel = &token;
  EXPECT_EQ(gsknn::tree::all_nearest_neighbors(X, 4, rkd).status,
            gsknn::Status::kCancelled);

  const std::vector<fr::Event> events = fr::drain();
  const auto last_end =
      std::find_if(events.rbegin(), events.rend(), [](const fr::Event& e) {
        return e.kind == fr::Kind::kCallEnd;
      });
  ASSERT_NE(last_end, events.rend());
  EXPECT_EQ(last_end->entry,
            static_cast<int>(gsknn::metrics::EntryPoint::kRkdForest));
  EXPECT_EQ(last_end->status, static_cast<int>(gsknn::Status::kCancelled));
  fr::rearm_trigger();  // the non-OK completion may have latched it
}

}  // namespace
