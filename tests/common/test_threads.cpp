// Thread-slot registry (gsknn/common/threads.hpp) under the three layers
// indexed by it: metrics shards, flight-recorder rings and TraceSink
// tracks. Slots are released on thread exit and reused, so a process that
// churns short-lived threads keeps full coverage; threads beyond
// kMaxThreadSlots that are live at the same time take each layer's no-slot
// path (exact overflow shard for metrics, counted drops for the flight
// recorder and trace). Labelled `observability` for the tsan leg.
#include "gsknn/common/threads.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <latch>
#include <numeric>
#include <thread>
#include <vector>

#include "gsknn/common/flightrec.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/common/trace.hpp"
#include "gsknn/data/generators.hpp"
#include "gsknn/serving/server.hpp"

namespace gsknn {
namespace {

namespace fr = gsknn::flightrec;
namespace m = gsknn::metrics;
using telemetry::Phase;
using telemetry::trace_now;
using telemetry::TraceSink;

constexpr m::Counter kProbe = m::Counter::kWorkspaceRetileSteps;

class ThreadSlots : public ::testing::Test {
 protected:
  void SetUp() override {
    m::set_enabled(true);
    m::reset();
    fr::set_enabled(true);
    fr::clear();
  }
  void TearDown() override { fr::clear(); }
};

/// One record in each layer from the calling thread.
void record_all(TraceSink& sink, int i) {
  m::add_counter(kProbe);
  fr::record(fr::Kind::kPackUpdate, -1, 0, static_cast<std::uint64_t>(i));
  const std::uint64_t t0 = trace_now();
  sink.record(Phase::kMicro, t0, trace_now());
}

std::uint64_t probe_count() {
  return m::snapshot().counters[static_cast<int>(kProbe)];
}

TEST_F(ThreadSlots, SlotIsStableWithinAThreadAndBounded) {
  const int slot = thread_slot();
  ASSERT_GE(slot, 0);
  EXPECT_LT(slot, kMaxThreadSlots);
  EXPECT_EQ(thread_slot(), slot);
  EXPECT_GT(thread_slot_high_water(), slot);
  EXPECT_LE(thread_slot_high_water(), kMaxThreadSlots);
}

TEST_F(ThreadSlots, SequentialThreadsLoseNothing) {
  // Twice as many short-lived threads as there are slots, one after
  // another: only release at exit and reuse keep every record.
  constexpr int kThreads = 2 * kMaxThreadSlots;
  TraceSink sink(64);
  std::vector<int> slots(kThreads, -1);
  for (int i = 0; i < kThreads; ++i) {
    std::thread([&sink, &slots, i] {
      slots[i] = thread_slot();
      record_all(sink, i);
    }).join();
  }
  // The lowest free slot is handed out, and each thread freed its own.
  ASSERT_GE(slots[0], 0);
  EXPECT_EQ(std::count(slots.begin(), slots.end(), slots[0]), kThreads);
  EXPECT_EQ(probe_count(), static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(fr::drain().size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(fr::dropped(), 0u);
  EXPECT_EQ(sink.span_count(), static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(sink.dropped_spans(), 0u);
}

TEST_F(ThreadSlots, MoreLiveThreadsThanSlots) {
  // Every thread records, then stays alive until all have recorded, so more
  // than kMaxThreadSlots threads want a slot at once and some must take the
  // no-slot path.
  constexpr int kThreads = kMaxThreadSlots + 8;
  TraceSink sink(16);
  std::latch recorded(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&sink, &recorded, i] {
      record_all(sink, i);
      recorded.arrive_and_wait();
    });
  }
  for (std::thread& t : threads) t.join();
  // Metrics stays exact: slotless threads share the fetch_add overflow shard.
  EXPECT_EQ(probe_count(), static_cast<std::uint64_t>(kThreads));
  // The flight recorder and trace drop slotless records and count them.
  EXPECT_EQ(fr::drain().size() + fr::dropped(),
            static_cast<std::uint64_t>(kThreads));
  EXPECT_GT(fr::dropped(), 0u);
  EXPECT_EQ(sink.span_count() + sink.dropped_spans(),
            static_cast<std::uint64_t>(kThreads));
  EXPECT_GT(sink.dropped_spans(), 0u);
  EXPECT_EQ(thread_slot_high_water(), kMaxThreadSlots);
}

TEST_F(ThreadSlots, ServerLifetimesKeepRecording) {
  // Each Server starts a worker and a monitor thread and joins them on
  // destruction; the worker's serve_fuse event must survive every lifetime.
  const PointTable X = make_uniform(8, 256, 0x5107);
  std::vector<int> ids(200);
  std::iota(ids.begin(), ids.end(), 0);
  constexpr int kLifetimes = 40;
  for (int life = 0; life < kLifetimes; ++life) {
    fr::clear();
    {
      serving::ServerOptions opt;
      opt.workers = 1;
      serving::Server srv(X, opt);
      ASSERT_EQ(srv.create_refs("main", ids), Status::kOk);
      const serving::TicketId t = srv.submit("main", 210, 4);
      ASSERT_NE(t, 0u);
      ASSERT_EQ(srv.wait(t), Status::kOk);
    }
    const std::vector<fr::Event> events = fr::drain();
    EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                            [](const fr::Event& ev) {
                              return ev.kind == fr::Kind::kServeFuse;
                            }))
        << "lifetime " << life << " left no serve_fuse event";
  }
}

}  // namespace
}  // namespace gsknn
