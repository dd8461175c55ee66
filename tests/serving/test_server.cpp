// gsknn::serving — the async runtime must be an execution-order detail:
// every completed ticket is bitwise-identical to a cold synchronous
// knn_kernel call over the same query and reference generation, under batch
// fusion, cancellation, deadline expiry, drop_refs and concurrent mutation.
// Fusion itself is observable (fused_queries > fused_calls), a fused call
// streams the cached references once, and the warm fused path moves zero
// packed reference bytes (docs/SERVING.md).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "../test_util.hpp"
#include "gsknn/capi.h"
#include "gsknn/common/arch.hpp"
#include "gsknn/common/fault.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/data/generators.hpp"
#include "gsknn/serving/server.hpp"

namespace gsknn {
namespace {

using serving::Lane;
using serving::Server;
using serving::ServerOptions;
using serving::SubmitOptions;
using serving::TicketId;

std::vector<int> iota_ids(int n, int start = 0) {
  std::vector<int> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), start);
  return ids;
}

SubmitOptions lane_opt(Lane lane) {
  SubmitOptions opt;
  opt.lane = lane;
  return opt;
}

/// Cold synchronous oracle for one query: full knn_kernel (not brute force)
/// so the comparison is bitwise, not tolerance-based.
void cold_single(const PointTable& X, int query, std::span<const int> ridx,
                 NeighborTable& out) {
  const int qidx[1] = {query};
  KnnConfig cfg;
  ASSERT_EQ(knn_kernel_status(X, std::span<const int>(qidx, 1), ridx, out,
                              cfg),
            Status::kOk);
}

/// Expect a completed ticket's result to equal the cold kernel bitwise.
void expect_ticket_matches_cold(const Server& srv, TicketId t,
                                const PointTable& X, int query,
                                std::span<const int> ridx, int k) {
  std::vector<int> ids(static_cast<std::size_t>(k));
  std::vector<double> dists(static_cast<std::size_t>(k));
  const int got = srv.result(t, ids, dists);
  ASSERT_EQ(got, k) << "ticket " << t;
  NeighborTable cold(1, k);
  cold_single(X, query, ridx, cold);
  const auto row = cold.sorted_row(0);
  ASSERT_EQ(row.size(), static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    EXPECT_EQ(dists[static_cast<std::size_t>(j)],
              row[static_cast<std::size_t>(j)].first)
        << "ticket " << t << " rank " << j;
    EXPECT_EQ(ids[static_cast<std::size_t>(j)],
              row[static_cast<std::size_t>(j)].second)
        << "ticket " << t << " rank " << j;
  }
}

/// Arm the fault hooks for one test body; disarm on every exit path so a
/// failing ASSERT cannot leak a stalled worker into the next test.
struct FaultGuard {
  explicit FaultGuard(const fault::FaultConfig& fc) { fault::configure(fc); }
  ~FaultGuard() { fault::reset(); }
};

/// Stall every fused dispatch of the server's workers by `us` microseconds
/// (fault serve_slow_us) — long enough that a burst submitted behind a held
/// worker is fully queued before the next admission.
fault::FaultConfig serve_stall(std::int64_t us) {
  fault::FaultConfig fc;
  fc.serve_slow_us = us;
  return fc;
}

/// Submit `plug`, wait until a worker holds it (stalled by serve_stall
/// before its dispatch), then submit one ticket per entry of `burst`. The
/// whole burst queues behind the held worker by construction, so
/// admission fuses it into max_fused_queries-sized groups.
std::vector<TicketId> submit_behind_held_worker(Server& srv, int plug,
                                                const std::vector<int>& burst,
                                                int k, Lane lane) {
  std::vector<TicketId> tickets;
  tickets.reserve(burst.size() + 1);
  tickets.push_back(srv.submit("main", plug, k, lane_opt(lane)));
  EXPECT_NE(tickets.back(), 0u);
  while (srv.stats().in_flight == 0 && !srv.poll(tickets.back())) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (const int q : burst) {
    Status err = Status::kOk;
    tickets.push_back(srv.submit("main", q, k, lane_opt(lane), &err));
    EXPECT_NE(tickets.back(), 0u) << static_cast<int>(err);
  }
  return tickets;
}

TEST(Serving, SingleTicketBitwiseMatchesColdKernel) {
  const int d = 24, n = 300, k = 9;
  const PointTable X = make_uniform(d, n, 0x5E21);
  Server srv(X);
  const std::vector<int> ids = iota_ids(256);
  ASSERT_EQ(srv.create_refs("main", ids), Status::kOk);

  Status err = Status::kOk;
  const TicketId t = srv.submit("main", /*query=*/271, k, {}, &err);
  ASSERT_NE(t, 0u) << static_cast<int>(err);
  EXPECT_EQ(srv.wait(t), Status::kOk);
  Status done = Status::kInternal;
  EXPECT_TRUE(srv.poll(t, &done));
  EXPECT_EQ(done, Status::kOk);
  expect_ticket_matches_cold(srv, t, X, 271, ids, k);

  const Server::Stats st = srv.stats();
  EXPECT_EQ(st.submitted, 1u);
  EXPECT_EQ(st.completed, 1u);
}

TEST(Serving, SubmitValidatesArguments) {
  const PointTable X = make_uniform(8, 64, 0xBAD5);
  Server srv(X);
  ASSERT_EQ(srv.create_refs("r", iota_ids(32)), Status::kOk);
  EXPECT_EQ(srv.create_refs("r", iota_ids(8)), Status::kInvalidArgument);

  Status err = Status::kOk;
  EXPECT_EQ(srv.submit("nope", 0, 4, {}, &err), 0u);
  EXPECT_EQ(err, Status::kInvalidArgument);
  EXPECT_EQ(srv.submit("r", -1, 4, {}, &err), 0u);
  EXPECT_EQ(err, Status::kBadIndex);
  EXPECT_EQ(srv.submit("r", 64, 4, {}, &err), 0u);
  EXPECT_EQ(err, Status::kBadIndex);
  EXPECT_EQ(srv.submit("r", 0, 0, {}, &err), 0u);
  EXPECT_EQ(err, Status::kBadConfig);
  EXPECT_EQ(srv.submit("r", 0, 33, {}, &err), 0u);
  EXPECT_EQ(err, Status::kBadConfig);

  // Unknown tickets are terminal with kBadIndex; their result is absent.
  Status st = Status::kOk;
  EXPECT_TRUE(srv.poll(999, &st));
  EXPECT_EQ(st, Status::kBadIndex);
  EXPECT_EQ(srv.wait(999), Status::kBadIndex);
  std::vector<int> ids(4);
  std::vector<double> dists(4);
  EXPECT_EQ(srv.result(999, ids, dists), -1);
}

TEST(Serving, BurstFusesAndEveryTicketMatchesCold) {
  // One worker held by an injected stall before each dispatch, so the
  // queue backs up by construction and admission coalesces — the paper's
  // shared-Rc win surfacing as fusion ratio. The watchdog is off: the
  // stall is scheduling, not a stuck call.
  const int d = 32, n = 4096, k = 12, burst = 64;
  const PointTable X = make_uniform(d, n, 0xF0CC);
  ServerOptions opt;
  opt.workers = 1;
  opt.max_fused_queries = 16;
  opt.watchdog_factor = 0.0;
  Server srv(X, opt);
  const std::vector<int> ids = iota_ids(n - 64);
  ASSERT_EQ(srv.create_refs("main", ids), Status::kOk);

  const FaultGuard guard(serve_stall(50000));
  std::vector<int> queries;
  for (int i = 1; i < burst; ++i) queries.push_back(n - 64 + (i % 64));
  const std::vector<TicketId> tickets =
      submit_behind_held_worker(srv, n - 64, queries, k, Lane::kBulk);
  ASSERT_EQ(tickets.size(), static_cast<std::size_t>(burst));
  for (const TicketId t : tickets) ASSERT_EQ(srv.wait(t), Status::kOk);
  for (int i = 0; i < burst; ++i) {
    expect_ticket_matches_cold(srv, tickets[static_cast<std::size_t>(i)], X,
                               n - 64 + (i % 64), ids, k);
  }

  const Server::Stats st = srv.stats();
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(burst));
  EXPECT_GT(st.fused_queries, st.fused_calls);
  EXPECT_GT(srv.fusion_ratio(), 1.0);
}

TEST(Serving, FusedCallStreamsReferencesOnce) {
  // A fused group is one m-row warm kernel call: every row shares each
  // leased reference block, so the cache sees one pass per fused call —
  // exactly a solo ticket's block acquisitions — however many tickets the
  // call carries.
  const int d = 16, n = 16384 + 64, k = 8, burst = 48;
  const PointTable X = make_uniform(d, n, 0x0F5E);
  ServerOptions opt;
  opt.workers = 1;
  opt.max_fused_queries = 16;
  opt.watchdog_factor = 0.0;
  Server srv(X, opt);
  const std::vector<int> ids = iota_ids(n - 64);
  ASSERT_EQ(srv.create_refs("main", ids), Status::kOk);

  // The first ticket packs every block; the second measures one pass.
  ASSERT_EQ(srv.wait(srv.submit("main", n - 1, k)), Status::kOk);
  const auto warm = srv.refs_stats("main");
  ASSERT_TRUE(warm.has_value());
  ASSERT_EQ(srv.wait(srv.submit("main", n - 2, k)), Status::kOk);
  const auto solo = srv.refs_stats("main");
  ASSERT_TRUE(solo.has_value());
  const std::uint64_t pass_hits = solo->hits - warm->hits;
  ASSERT_GE(pass_hits, 1u);
  ASSERT_EQ(solo->misses, warm->misses);

  const Server::Stats before = srv.stats();
  const FaultGuard guard(serve_stall(50000));
  std::vector<int> queries;
  for (int i = 1; i < burst; ++i) queries.push_back(n - 64 + i);
  const std::vector<TicketId> tickets =
      submit_behind_held_worker(srv, n - 64, queries, k, Lane::kBulk);
  ASSERT_EQ(tickets.size(), static_cast<std::size_t>(burst));
  for (const TicketId t : tickets) ASSERT_EQ(srv.wait(t), Status::kOk);
  for (int i = 0; i < burst; ++i) {
    expect_ticket_matches_cold(srv, tickets[static_cast<std::size_t>(i)], X,
                               n - 64 + i, ids, k);
  }

  const Server::Stats after = srv.stats();
  const auto end = srv.refs_stats("main");
  ASSERT_TRUE(end.has_value());
  const std::uint64_t calls = after.fused_calls - before.fused_calls;
  EXPECT_EQ(after.fused_queries - before.fused_queries,
            static_cast<std::uint64_t>(burst));
  EXPECT_EQ(end->hits - solo->hits, calls * pass_hits)
      << calls << " fused calls carried " << burst << " tickets";
  EXPECT_EQ(end->misses, solo->misses);
  EXPECT_GT(srv.fusion_ratio(), 1.0);
}

TEST(Serving, MultiThreadedFusedCallMatchesCold) {
  // kernel_threads > 1 splits a fused call's rows over the kernel team in
  // the 4th loop. An mc of one register tile gives a 64-row group one
  // 4th-loop block per tile, so every team thread takes rows; each ticket
  // must still equal the single-threaded cold kernel bitwise.
  const int d = 24, n = 3000, k = 10, burst = 64;
  const PointTable X = make_uniform(d, n, 0x4711);
  ServerOptions opt;
  opt.workers = 1;
  opt.kernel_threads = 4;
  opt.max_fused_queries = burst;
  opt.watchdog_factor = 0.0;
  BlockingParams bp = default_blocking(cpu_features().best_level());
  bp.mc = bp.mr;
  opt.blocking = bp;
  Server srv(X, opt);
  const std::vector<int> ids = iota_ids(n - burst);
  ASSERT_EQ(srv.create_refs("main", ids), Status::kOk);

  const FaultGuard guard(serve_stall(50000));
  std::vector<int> queries;
  for (int i = 1; i < burst; ++i) queries.push_back(n - burst + i);
  const std::vector<TicketId> tickets = submit_behind_held_worker(
      srv, n - burst, queries, k, Lane::kInteractive);
  ASSERT_EQ(tickets.size(), static_cast<std::size_t>(burst));
  for (const TicketId t : tickets) ASSERT_EQ(srv.wait(t), Status::kOk);
  for (int i = 0; i < burst; ++i) {
    expect_ticket_matches_cold(srv, tickets[static_cast<std::size_t>(i)], X,
                               n - burst + i, ids, k);
  }
  const Server::Stats st = srv.stats();
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(burst));
  EXPECT_GT(srv.fusion_ratio(), 1.0);
}

TEST(Serving, WarmFusedPathMovesZeroPackedBytes) {
  const int d = 16, n = 1024, k = 8;
  const PointTable X = make_uniform(d, n, 0x0B17E5);
  Server srv(X);
  const std::vector<int> ids = iota_ids(n - 32);
  ASSERT_EQ(srv.create_refs("main", ids), Status::kOk);

  // Cold pass: packs every block the queries touch.
  const TicketId warmup = srv.submit("main", n - 1, k);
  ASSERT_NE(warmup, 0u);
  ASSERT_EQ(srv.wait(warmup), Status::kOk);
  const auto before = srv.refs_stats("main");
  ASSERT_TRUE(before.has_value());
  ASSERT_GT(before->bytes_packed, 0u);

  // Warm fused traffic must not move a single packed byte.
  std::vector<TicketId> tickets;
  for (int i = 0; i < 24; ++i) {
    const TicketId t = srv.submit("main", n - 32 + i, k, lane_opt(Lane::kBulk));
    ASSERT_NE(t, 0u);
    tickets.push_back(t);
  }
  for (const TicketId t : tickets) ASSERT_EQ(srv.wait(t), Status::kOk);
  const auto after = srv.refs_stats("main");
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->bytes_packed, before->bytes_packed);
  EXPECT_EQ(after->resident_bytes, before->resident_bytes);
}

TEST(Serving, ZeroBudgetTicketExpiresCleanly) {
  const PointTable X = make_uniform(16, 512, 0xDEAD);
  // Predictive admission would refuse a 1 ns budget at submit (tested
  // separately); this pins the queue-then-expire path behind it.
  ServerOptions sopt;
  sopt.predictive_admission = false;
  Server srv(X, sopt);
  ASSERT_EQ(srv.create_refs("main", iota_ids(480)), Status::kOk);

  SubmitOptions opt;
  opt.budget = std::chrono::nanoseconds(1);
  const TicketId t = srv.submit("main", 500, 8, opt);
  ASSERT_NE(t, 0u);
  EXPECT_EQ(srv.wait(t), Status::kDeadlineExceeded);
  std::vector<int> ids(8);
  std::vector<double> dists(8);
  EXPECT_EQ(srv.result(t, ids, dists), -1);
  EXPECT_EQ(srv.stats().expired, 1u);
}

TEST(Serving, PredictiveAdmissionShedsHopelessBudget) {
  const PointTable X = make_uniform(16, 512, 0x5ED5);
  Server srv(X);  // predictive admission on by default
  ASSERT_EQ(srv.create_refs("main", iota_ids(480)), Status::kOk);

  // A 1 ns budget can never cover even the ticket's own predicted runtime:
  // predictive admission must refuse it with a positive retry_after hint
  // instead of queueing doomed work.
  SubmitOptions opt;
  opt.budget = std::chrono::nanoseconds(1);
  const serving::SubmitResult r = srv.submit_ex("main", 500, 8, opt);
  EXPECT_EQ(r.ticket, 0u);
  EXPECT_EQ(r.status, Status::kResourceExhausted);
  EXPECT_GT(r.retry_after.count(), 0);
  const Server::Stats st = srv.stats();
  EXPECT_EQ(st.shed_predictive, 1u);
  EXPECT_EQ(st.submitted, 0u);
  EXPECT_TRUE(st.consistent());

  // Unbudgeted tickets are never predictively shed.
  const serving::SubmitResult ok = srv.submit_ex("main", 500, 8, {});
  ASSERT_NE(ok.ticket, 0u);
  EXPECT_EQ(srv.wait(ok.ticket), Status::kOk);
}

TEST(Serving, GenerousBudgetStillCompletes) {
  const PointTable X = make_uniform(16, 512, 0xB1D0);
  Server srv(X);
  const std::vector<int> ids = iota_ids(480);
  ASSERT_EQ(srv.create_refs("main", ids), Status::kOk);
  SubmitOptions opt;
  opt.budget = std::chrono::seconds(30);
  const TicketId t = srv.submit("main", 500, 8, opt);
  ASSERT_NE(t, 0u);
  ASSERT_EQ(srv.wait(t), Status::kOk);
  expect_ticket_matches_cold(srv, t, X, 500, ids, 8);
}

TEST(Serving, CancelQueuedTicketNeverYieldsPartialResult) {
  // A slow first ticket keeps the single worker busy so later submissions
  // sit in the queue long enough to cancel deterministically-in-practice.
  const int d = 48, n = 8192, k = 16;
  const PointTable X = make_uniform(d, n, 0xCA2CE1);
  ServerOptions sopt;
  sopt.workers = 1;
  Server srv(X, sopt);
  const std::vector<int> ids = iota_ids(n - 16);
  ASSERT_EQ(srv.create_refs("main", ids), Status::kOk);

  const TicketId busy = srv.submit("main", n - 1, k);
  ASSERT_NE(busy, 0u);
  std::vector<TicketId> queued;
  for (int i = 0; i < 16; ++i) {
    const TicketId t = srv.submit("main", n - 16 + i, k, lane_opt(Lane::kBulk));
    ASSERT_NE(t, 0u);
    queued.push_back(t);
  }
  int cancelled = 0;
  for (std::size_t i = 0; i < queued.size(); ++i) {
    const TicketId t = queued[i];
    if (srv.cancel(t)) {
      ++cancelled;
      EXPECT_EQ(srv.wait(t), Status::kCancelled);
      std::vector<int> rid(static_cast<std::size_t>(k));
      std::vector<double> rd(static_cast<std::size_t>(k));
      EXPECT_EQ(srv.result(t, rid, rd), -1);
    } else {
      // Raced past cancellation: the ticket must then be fully correct.
      ASSERT_EQ(srv.wait(t), Status::kOk);
      expect_ticket_matches_cold(srv, t, X, n - 16 + static_cast<int>(i), ids,
                                 k);
    }
  }
  EXPECT_GT(cancelled, 0);
  EXPECT_EQ(srv.stats().cancelled, static_cast<std::uint64_t>(cancelled));
  // Cancel is queue-only: terminal tickets refuse.
  ASSERT_EQ(srv.wait(busy), Status::kOk);
  EXPECT_FALSE(srv.cancel(busy));
}

TEST(Serving, DropRefsCompletesQueuedTicketsRejectsNew) {
  const PointTable X = make_uniform(16, 1024, 0xD20F);
  Server srv(X);
  const std::vector<int> ids = iota_ids(1000);
  ASSERT_EQ(srv.create_refs("main", ids), Status::kOk);
  const TicketId t = srv.submit("main", 1010, 6);
  ASSERT_NE(t, 0u);
  ASSERT_EQ(srv.drop_refs("main"), Status::kOk);
  EXPECT_EQ(srv.drop_refs("main"), Status::kInvalidArgument);
  // Submitted before the drop: still completes against the shared set.
  ASSERT_EQ(srv.wait(t), Status::kOk);
  expect_ticket_matches_cold(srv, t, X, 1010, ids, 6);
  Status err = Status::kOk;
  EXPECT_EQ(srv.submit("main", 0, 6, {}, &err), 0u);
  EXPECT_EQ(err, Status::kInvalidArgument);
}

TEST(Serving, DestructorCancelsQueuedTickets) {
  const int d = 48, n = 8192, k = 16;
  const PointTable X = make_uniform(d, n, 0xD7C7);
  std::vector<TicketId> queued;
  Server::Stats st;
  {
    ServerOptions sopt;
    sopt.workers = 1;
    Server srv(X, sopt);
    ASSERT_EQ(srv.create_refs("main", iota_ids(n - 16)), Status::kOk);
    ASSERT_NE(srv.submit("main", n - 1, k), 0u);
    for (int i = 0; i < 8; ++i) {
      const TicketId t =
          srv.submit("main", n - 16 + i, k, lane_opt(Lane::kBulk));
      ASSERT_NE(t, 0u);
      queued.push_back(t);
    }
    // ~Server: in-flight fused call finishes, the rest fail kCancelled.
  }
  SUCCEED();
}

TEST(Serving, ConcurrentMutationYieldsOnlyCleanGenerations) {
  // Mutator toggles a block of extra ids in and out while tickets flow.
  // Every kOk ticket must match the cold kernel over one of the two clean
  // generations bitwise — a mixed-epoch result matches neither.
  const int d = 24, n = 320, k = 8;
  const PointTable X = make_uniform(d, n, 0x717E);
  ServerOptions sopt;
  sopt.workers = 2;
  Server srv(X, sopt);
  const std::vector<int> base = iota_ids(200);
  const std::vector<int> extra = iota_ids(40, 200);
  std::vector<int> grown = base;
  grown.insert(grown.end(), extra.begin(), extra.end());
  ASSERT_EQ(srv.create_refs("main", base), Status::kOk);

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_EQ(srv.insert_refs("main", extra), Status::kOk);
      ASSERT_EQ(srv.erase_refs("main", extra), Status::kOk);
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

  int completed = 0;
  for (int iter = 0; iter < 120; ++iter) {
    const int query = 240 + (iter % 60);
    const TicketId t = srv.submit(
        "main", query, k,
        lane_opt((iter % 2) != 0 ? Lane::kBulk : Lane::kInteractive));
    ASSERT_NE(t, 0u);
    const Status st = srv.wait(t);
    ASSERT_TRUE(st == Status::kOk || st == Status::kStale)
        << static_cast<int>(st);
    if (st != Status::kOk) continue;
    ++completed;
    std::vector<int> rid(static_cast<std::size_t>(k));
    std::vector<double> rd(static_cast<std::size_t>(k));
    ASSERT_EQ(srv.result(t, rid, rd), k);
    // Fresh tables each round: the kernel folds candidates into whatever
    // the result table already holds (partial-result semantics).
    NeighborTable cold_base(1, k), cold_grown(1, k);
    cold_single(X, query, base, cold_base);
    cold_single(X, query, grown, cold_grown);
    const auto matches = [&](const NeighborTable& cold) {
      const auto row = cold.sorted_row(0);
      for (int j = 0; j < k; ++j) {
        if (rd[static_cast<std::size_t>(j)] !=
                row[static_cast<std::size_t>(j)].first ||
            rid[static_cast<std::size_t>(j)] !=
                row[static_cast<std::size_t>(j)].second) {
          return false;
        }
      }
      return true;
    };
    EXPECT_TRUE(matches(cold_base) || matches(cold_grown))
        << "mixed-generation result at iter " << iter;
  }
  EXPECT_GT(completed, 0);
}

TEST(Serving, LaneMetricsAndFusionCountersRecorded) {
  namespace m = metrics;
  m::set_enabled(true);
  m::reset();
  const PointTable X = make_uniform(16, 512, 0x3E7);
  {
    Server srv(X);
    ASSERT_EQ(srv.create_refs("main", iota_ids(480)), Status::kOk);
    std::vector<TicketId> ts;
    for (int i = 0; i < 8; ++i) {
      ts.push_back(srv.submit("main", 500, 4,
                              lane_opt((i % 2) != 0 ? Lane::kBulk
                                                     : Lane::kInteractive)));
      ASSERT_NE(ts.back(), 0u);
    }
    for (const TicketId t : ts) ASSERT_EQ(srv.wait(t), Status::kOk);
  }
  const m::MetricsSnapshot snap = m::snapshot();
  const auto counter = [&](m::Counter c) {
    return snap.counters[static_cast<int>(c)];
  };
  EXPECT_EQ(counter(m::Counter::kServeEnqueued), 8u);
  EXPECT_GE(counter(m::Counter::kServeFusedCalls), 1u);
  EXPECT_EQ(counter(m::Counter::kServeFusedQueries), 8u);
  EXPECT_EQ(snap.calls_total(m::EntryPoint::kServeInteractive), 4u);
  EXPECT_EQ(snap.calls_total(m::EntryPoint::kServeBulk), 4u);
  m::reset();
  m::set_enabled(false);
}

// Pure C-API roundtrip: the gsknn_server_* surface against gsknn_search on
// the same handle-created table, with never-positive status codes on every
// error path a binding would hit.
TEST(Serving, CApiRoundTripMatchesSearch) {
  const int d = 8, n = 200, k = 5;
  std::vector<double> coords(static_cast<std::size_t>(d) * n);
  std::mt19937_64 rng(0xCA91);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (double& c : coords) c = u(rng);
  gsknn_table* table = gsknn_table_create(d, n, coords.data());
  ASSERT_NE(table, nullptr);

  gsknn_server* srv =
      gsknn_server_create(table, GSKNN_NORM_L2SQ, /*workers=*/1);
  ASSERT_NE(srv, nullptr);
  EXPECT_EQ(gsknn_server_create(nullptr, GSKNN_NORM_L2SQ, 1), nullptr);

  const std::vector<int> ids = iota_ids(160);
  ASSERT_EQ(gsknn_server_create_refs(srv, "main", ids.data(),
                                     static_cast<int>(ids.size())),
            GSKNN_OK);
  EXPECT_LT(gsknn_server_submit(srv, "nope", 190, k, GSKNN_LANE_BULK, 0.0),
            0);
  EXPECT_LT(gsknn_server_submit(srv, "main", n, k, GSKNN_LANE_INTERACTIVE,
                                0.0),
            0);

  const long long t = gsknn_server_submit(srv, "main", 190, k,
                                          GSKNN_LANE_INTERACTIVE, 0.0);
  ASSERT_GT(t, 0);
  ASSERT_EQ(gsknn_server_wait(srv, t), GSKNN_OK);
  EXPECT_EQ(gsknn_server_poll(srv, t), 1);
  std::vector<int> got_ids(static_cast<std::size_t>(k));
  std::vector<double> got_d(static_cast<std::size_t>(k));
  ASSERT_EQ(gsknn_server_result(srv, t, got_ids.data(), got_d.data(), k), k);

  gsknn_result* cold = gsknn_result_create(1, k);
  ASSERT_NE(cold, nullptr);
  const int qidx[1] = {190};
  ASSERT_EQ(gsknn_search(table, qidx, 1, ids.data(),
                         static_cast<int>(ids.size()), GSKNN_NORM_L2SQ,
                         GSKNN_VARIANT_AUTO, 2.0, 1, cold),
            GSKNN_OK);
  std::vector<int> cold_ids(static_cast<std::size_t>(k));
  std::vector<double> cold_d(static_cast<std::size_t>(k));
  ASSERT_EQ(gsknn_result_row(cold, 0, k, cold_ids.data(), cold_d.data()), k);
  EXPECT_EQ(got_ids, cold_ids);
  EXPECT_EQ(got_d, cold_d);

  // Unknown tickets are terminal errors, not "pending forever".
  EXPECT_LT(gsknn_server_wait(srv, 999999), 0);
  EXPECT_EQ(gsknn_server_poll(srv, 999999), 1);
  EXPECT_EQ(gsknn_server_drop_refs(srv, "main"), GSKNN_OK);
  EXPECT_LT(gsknn_server_submit(srv, "main", 190, k, GSKNN_LANE_BULK, 0.0),
            0);

  gsknn_result_destroy(cold);
  gsknn_server_destroy(srv);
  gsknn_table_destroy(table);
}


// ---- overload protection (docs/SERVING.md "Overload & degradation") ------

TEST(Serving, WatchdogCancelsStuckWorkerAndRetryCapFails) {
  const PointTable X = make_uniform(16, 512, 0x7D06);
  ServerOptions sopt;
  sopt.workers = 1;
  // Fire on anything slower than 1 ms; the injected 20 ms stall per fused
  // dispatch is 20x past that, and the 1 ms monitor tick lands inside it.
  sopt.watchdog_factor = 0.5;
  sopt.watchdog_floor = std::chrono::milliseconds(1);
  sopt.retry.max_attempts = 2;
  sopt.retry.base = std::chrono::microseconds(50);
  Server srv(X, sopt);
  ASSERT_EQ(srv.create_refs("main", iota_ids(480)), Status::kOk);

  fault::FaultConfig fc;
  fc.serve_slow_us = 20000;
  FaultGuard guard(fc);

  // Every dispatch attempt stalls and is watchdog-cancelled; the retry
  // policy re-admits the ticket until its attempts run out, then fails it
  // with the infrastructure cause (kResourceExhausted, not kCancelled:
  // the caller never asked for the cancellation).
  const TicketId t = srv.submit("main", 500, 8);
  ASSERT_NE(t, 0u);
  EXPECT_EQ(srv.wait(t), Status::kResourceExhausted);
  std::vector<int> ids(8);
  std::vector<double> dists(8);
  EXPECT_EQ(srv.result(t, ids, dists), -1);

  const Server::Stats st = srv.stats();
  EXPECT_GE(st.watchdog_fires, 1u);
  EXPECT_GE(st.requeues, 1u);
  EXPECT_EQ(st.failed, 1u);
  EXPECT_TRUE(st.consistent());
  // A watchdog fire marks the worker suspect: health cannot read healthy
  // this soon after (degraded, or unhealthy once the breaker opened).
  EXPECT_NE(srv.health(), serving::HealthState::kHealthy);
}

TEST(Serving, ServeHealthGaugeIsWorstLiveServer) {
  // Drive one server non-healthy the way the watchdog test above does, then
  // start a second, healthy server: the process gauge must keep reporting
  // the first until it is destroyed.
  const PointTable X = make_uniform(16, 512, 0x4EA1);
  ServerOptions sopt;
  sopt.workers = 1;
  sopt.watchdog_factor = 0.5;
  sopt.watchdog_floor = std::chrono::milliseconds(1);
  sopt.retry.max_attempts = 2;
  sopt.retry.base = std::chrono::microseconds(50);
  auto sick = std::make_unique<Server>(X, sopt);
  ASSERT_EQ(sick->create_refs("main", iota_ids(480)), Status::kOk);
  {
    fault::FaultConfig fc;
    fc.serve_slow_us = 20000;
    FaultGuard guard(fc);
    const TicketId t = sick->submit("main", 500, 8);
    ASSERT_NE(t, 0u);
    EXPECT_EQ(sick->wait(t), Status::kResourceExhausted);
  }
  ASSERT_NE(sick->health(), serving::HealthState::kHealthy);
  // Empty the rolling window first so the new server's monitor sees no
  // SLO pressure from the failed ticket and stays healthy.
  metrics::reset();
  Server fine(X, ServerOptions{});
  EXPECT_NE(metrics::serve_health(), 0);
  sick.reset();
  EXPECT_EQ(metrics::serve_health(), 0);
}

TEST(Serving, RetentionEvictsOldestTerminalTicketsFifo) {
  const PointTable X = make_uniform(16, 512, 0x2E7A);
  ServerOptions sopt;
  sopt.max_retained_tickets = 4;
  // Every wait below demands kOk; an oversubscribed sanitizer run can
  // deschedule the worker past the default watchdog floor, so disarm it.
  sopt.watchdog_floor = std::chrono::seconds(30);
  Server srv(X, sopt);
  const std::vector<int> ids = iota_ids(480);
  ASSERT_EQ(srv.create_refs("main", ids), Status::kOk);

  std::vector<TicketId> ts;
  for (int i = 0; i < 10; ++i) {
    const TicketId t = srv.submit("main", 490 + (i % 8), 6);
    ASSERT_NE(t, 0u);
    ASSERT_EQ(srv.wait(t), Status::kOk);
    ts.push_back(t);
  }
  EXPECT_EQ(srv.stats().evicted_tickets, 6u);

  // Forgotten tickets take the unknown-ticket contract: terminal with
  // kBadIndex, no result. The newest max_retained_tickets stay queryable.
  for (std::size_t i = 0; i < 6; ++i) {
    Status s = Status::kOk;
    EXPECT_TRUE(srv.poll(ts[i], &s)) << i;
    EXPECT_EQ(s, Status::kBadIndex) << i;
    std::vector<int> rid(6);
    std::vector<double> rd(6);
    EXPECT_EQ(srv.result(ts[i], rid, rd), -1) << i;
  }
  for (std::size_t i = 6; i < 10; ++i) {
    expect_ticket_matches_cold(srv, ts[i], X, 490 + (static_cast<int>(i) % 8),
                               ids, 6);
  }
  // Eviction is bookkeeping, not accounting: completed still counts all 10.
  const Server::Stats st = srv.stats();
  EXPECT_EQ(st.completed, 10u);
  EXPECT_TRUE(st.consistent());
}

TEST(Serving, StatsSnapshotStaysConsistentUnderConcurrentLoad) {
  // The conservation identity must hold for *every* snapshot, not just
  // quiescent ones: a reader hammers stats()/health() while submissions,
  // cancellations and completions race on two workers.
  const PointTable X = make_uniform(24, 2048, 0x57A7);
  ServerOptions sopt;
  sopt.workers = 2;
  sopt.max_retained_tickets = 64;
  // Timing protection is not under test here, and on a loaded sanitizer
  // run a fused call can legitimately run 10-20x past the model
  // prediction — an armed watchdog would cancel it and the breaker would
  // shed the drain's submits. Keep this test about snapshot coherence.
  sopt.watchdog_floor = std::chrono::seconds(30);
  Server srv(X, sopt);
  ASSERT_EQ(srv.create_refs("main", iota_ids(2000)), Status::kOk);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> loaded_snapshots{0};  // taken after a submit
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Server::Stats st = srv.stats();
      EXPECT_TRUE(st.consistent())
          << st.submitted << " != " << st.completed << "+" << st.cancelled
          << "+" << st.expired << "+" << st.failed << "+" << st.in_flight;
      (void)srv.health();
      (void)srv.fusion_ratio();
      if (st.submitted > 0) {
        loaded_snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  struct JoinGuard {
    std::atomic<bool>& stop;
    std::thread& th;
    ~JoinGuard() {
      stop.store(true, std::memory_order_relaxed);
      if (th.joinable()) th.join();
    }
  } join_guard{stop, reader};

  std::vector<TicketId> ts;
  for (int i = 0; i < 300; ++i) {
    const TicketId t = srv.submit(
        "main", 2010 + (i % 30), 8,
        lane_opt((i % 3) != 0 ? Lane::kBulk : Lane::kInteractive));
    ASSERT_NE(t, 0u);
    if (i % 7 == 0) (void)srv.cancel(t);
    ts.push_back(t);
  }
  // The whole load can finish within one scheduler slice, so hold the
  // drain until the reader has taken a snapshot under it; otherwise the
  // test could pass without the reader ever overlapping the load.
  while (loaded_snapshots.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  for (const TicketId t : ts) {
    // kBadIndex = already evicted from the 64-deep terminal FIFO by the
    // time this wait lands — retention eviction racing the drain is part
    // of what the reader is hammering.
    const Status s = srv.wait(t);
    EXPECT_TRUE(s == Status::kOk || s == Status::kCancelled ||
                s == Status::kBadIndex)
        << static_cast<int>(s);
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  const Server::Stats st = srv.stats();
  EXPECT_EQ(st.submitted, 300u);
  EXPECT_EQ(st.in_flight, 0u);
  EXPECT_TRUE(st.consistent());
}

TEST(Serving, CApiSubmitExHintAndHealth) {
  const int d = 8, n = 200, k = 5;
  std::vector<double> coords(static_cast<std::size_t>(d) * n);
  std::mt19937_64 rng(0x5EA1);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (double& c : coords) c = u(rng);
  gsknn_table* table = gsknn_table_create(d, n, coords.data());
  ASSERT_NE(table, nullptr);
  gsknn_server* srv =
      gsknn_server_create(table, GSKNN_NORM_L2SQ, /*workers=*/1);
  ASSERT_NE(srv, nullptr);

  EXPECT_EQ(gsknn_server_health(srv), GSKNN_HEALTH_HEALTHY);
  EXPECT_LT(gsknn_server_health(nullptr), 0);

  const std::vector<int> ids = iota_ids(160);
  ASSERT_EQ(gsknn_server_create_refs(srv, "main", ids.data(),
                                     static_cast<int>(ids.size())),
            GSKNN_OK);

  // A 1 ns budget (1e-6 ms) is predictively hopeless: refused with the
  // resource-exhausted code and a positive retry_after hint.
  double hint = -1.0;
  EXPECT_EQ(gsknn_server_submit_ex(srv, "main", 190, k,
                                   GSKNN_LANE_INTERACTIVE, 1e-6, &hint),
            GSKNN_ERR_RESOURCE_EXHAUSTED);
  EXPECT_GT(hint, 0.0);
  // The hint out-param is optional.
  EXPECT_EQ(gsknn_server_submit_ex(srv, "main", 190, k,
                                   GSKNN_LANE_INTERACTIVE, 1e-6, nullptr),
            GSKNN_ERR_RESOURCE_EXHAUSTED);

  // Admitted submissions zero the hint and behave like gsknn_server_submit.
  hint = -1.0;
  const long long t = gsknn_server_submit_ex(srv, "main", 190, k,
                                             GSKNN_LANE_BULK, 0.0, &hint);
  ASSERT_GT(t, 0);
  EXPECT_EQ(hint, 0.0);
  ASSERT_EQ(gsknn_server_wait(srv, t), GSKNN_OK);
  std::vector<int> got_ids(static_cast<std::size_t>(k));
  std::vector<double> got_d(static_cast<std::size_t>(k));
  EXPECT_EQ(gsknn_server_result(srv, t, got_ids.data(), got_d.data(), k), k);

  gsknn_server_destroy(srv);
  gsknn_table_destroy(table);
}

}  // namespace
}  // namespace gsknn
