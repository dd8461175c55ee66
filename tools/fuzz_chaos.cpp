// Differential chaos fuzzer for the serving runtime's overload-protection
// machinery (docs/SERVING.md "Overload & degradation", docs/ROBUSTNESS.md).
//
// Where fuzz_diff round 7 checks the serving runtime on a healthy machine,
// this harness drives gsknn::serving::Server with the gsknn::fault hooks
// armed — cancel storms at governance polls, periodic allocation failures,
// slow kernels, stuck-worker stalls the watchdog must catch — and checks,
// per trial:
//
//   1. every submitted ticket reaches exactly one terminal state (no ticket
//      lost, none double-completed: a second wait/poll sees the same
//      status);
//   2. tickets that complete kOk return results BITWISE-identical to a cold
//      synchronous kernel over one of the clean reference generations that
//      existed during the ticket's lifetime — chaos may delay or kill a
//      ticket but never corrupt one;
//   3. non-kOk terminals are explicable: kCancelled only for tickets this
//      harness cancelled, kDeadlineExceeded only for budgeted tickets,
//      kStale only under mutator traffic, kResourceExhausted only when a
//      fault knob or budget can produce it;
//   4. Server::stats() stays internally consistent (submitted equals the
//      terminal + live sum) and the watchdog/breaker counters reconcile
//      with the flight recorder's serve_watchdog/serve_breaker events;
//   5. a storm family (tiny queues, tiny retention FIFO, concurrent cancel
//      + mutator threads, aggressive watchdog/breaker settings) keeps the
//      same accounting invariants when everything fires at once.
//
// Runs for --seconds wall time (default 20) from --seed; on failure prints
// the trial's repro parameters and exits nonzero.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "gsknn/common/fault.hpp"
#include "gsknn/common/flightrec.hpp"
#include "gsknn/common/rng.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/data/point_table.hpp"
#include "gsknn/serving/server.hpp"
#include "test_util.hpp"

namespace {

using gsknn::KnnConfig;
using gsknn::NeighborTable;
using gsknn::PointTable;
using gsknn::Status;

/// Disarm the hooks however the trial exits.
struct FaultGuard {
  ~FaultGuard() { gsknn::fault::reset(); }
};

struct ChaosTrial {
  std::uint64_t seed = 0;
  long index = 0;
  bool storm = false;
  gsknn::fault::FaultConfig fc;
  int workers = 1;
  int max_fused = 4;
};

void print_repro(const ChaosTrial& t) {
  std::fprintf(stderr,
               "fuzz_chaos FAILURE: repro with --seed=%llu at trial %ld\n"
               "  family=%s workers=%d max_fused=%d cancel_every=%lld "
               "alloc_every=%lld slow_us=%lld serve_slow_us=%lld\n",
               static_cast<unsigned long long>(t.seed), t.index,
               t.storm ? "storm" : "oracle", t.workers, t.max_fused,
               static_cast<long long>(t.fc.cancel_every),
               static_cast<long long>(t.fc.alloc_every),
               static_cast<long long>(t.fc.slow_us),
               static_cast<long long>(t.fc.serve_slow_us));
}

/// Post-trial invariants shared by both families. Call with every ticket
/// already terminal and the server still alive (its stats must balance
/// without the destructor's drain).
bool check_accounting(gsknn::serving::Server& srv, const ChaosTrial& t) {
  const auto st = srv.stats();
  if (!st.consistent()) {
    std::fprintf(stderr,
                 "chaos: stats inconsistent: submitted=%llu completed=%llu "
                 "cancelled=%llu expired=%llu failed=%llu in_flight=%llu "
                 "queued=%d/%d\n",
                 static_cast<unsigned long long>(st.submitted),
                 static_cast<unsigned long long>(st.completed),
                 static_cast<unsigned long long>(st.cancelled),
                 static_cast<unsigned long long>(st.expired),
                 static_cast<unsigned long long>(st.failed),
                 static_cast<unsigned long long>(st.in_flight),
                 st.queue_depth[0], st.queue_depth[1]);
    return false;
  }
  if (st.in_flight != 0 || st.queue_depth[0] != 0 || st.queue_depth[1] != 0) {
    std::fprintf(stderr, "chaos: live work after all tickets terminal\n");
    return false;
  }
  // Counter/flight-recorder reconciliation: every watchdog fire and every
  // breaker open leaves exactly one event (value 1 = transition into open).
  // Ring overwrites surface as dropped(); reconcile only on a clean ring.
  if (gsknn::flightrec::enabled() && gsknn::flightrec::dropped() == 0) {
    std::uint64_t wd = 0, opens = 0;
    for (const auto& ev : gsknn::flightrec::drain()) {
      if (ev.kind == gsknn::flightrec::Kind::kServeWatchdog) ++wd;
      if (ev.kind == gsknn::flightrec::Kind::kServeBreaker && ev.value == 1) {
        ++opens;
      }
    }
    if (wd != st.watchdog_fires || opens != st.breaker_opens) {
      std::fprintf(stderr,
                   "chaos: flightrec mismatch: %llu watchdog events vs %llu "
                   "fires, %llu open events vs %llu opens\n",
                   static_cast<unsigned long long>(wd),
                   static_cast<unsigned long long>(st.watchdog_fires),
                   static_cast<unsigned long long>(opens),
                   static_cast<unsigned long long>(st.breaker_opens));
      print_repro(t);
      return false;
    }
  }
  return true;
}

/// Oracle family: the fuzz_diff round-7 differential harness with the
/// fault hooks armed. Chaos widens the set of legal terminals but never
/// loosens the kOk contract — a completed ticket is still bitwise-checked
/// against a clean shadow generation.
bool chaos_oracle_trial(const ChaosTrial& t, gsknn::Xoshiro256& rng) {
  const int d = 6 + static_cast<int>(rng.below(12));
  const int npts = 120 + static_cast<int>(rng.below(60));
  const int kmax = 8;
  const int floor_refs = 24;
  PointTable X(d, npts);
  for (int i = 0; i < npts; ++i) {
    for (int r = 0; r < d; ++r) X.col(i)[r] = rng.uniform(-1.0, 1.0);
  }
  X.compute_norms();

  gsknn::serving::ServerOptions sopt;
  sopt.workers = t.workers;
  sopt.max_fused_queries = t.max_fused;
  // Sane protection settings: on a healthy call pattern the watchdog must
  // not fire spuriously, so the floor stays far above real kernel time.
  sopt.watchdog_factor = 4.0 + static_cast<double>(rng.below(12));
  sopt.watchdog_floor = std::chrono::milliseconds(
      20 + static_cast<std::int64_t>(rng.below(80)));
  sopt.breaker_threshold = 3 + static_cast<int>(rng.below(6));
  sopt.breaker_cooldown = std::chrono::milliseconds(
      5 + static_cast<std::int64_t>(rng.below(45)));
  sopt.retry.max_attempts = 2 + static_cast<int>(rng.below(6));
  sopt.retry.base = std::chrono::microseconds(
      20 + static_cast<std::int64_t>(rng.below(200)));
  sopt.max_retained_tickets = 0;  // every ticket stays inspectable
  gsknn::serving::Server srv(X, sopt);

  const int n0 = 40 + static_cast<int>(rng.below(40));
  std::vector<int> shadow(static_cast<std::size_t>(n0));
  for (int i = 0; i < n0; ++i) shadow[static_cast<std::size_t>(i)] = i;
  int next_unused = n0;
  std::vector<std::vector<int>> generations = {shadow};
  if (srv.create_refs("cz", shadow) != Status::kOk) {
    std::fprintf(stderr, "chaos: create_refs failed\n");
    return false;
  }

  FaultGuard guard;
  gsknn::fault::configure(t.fc);
  const bool chaos_armed = t.fc.cancel_every > 0 || t.fc.alloc_every > 0 ||
                           t.fc.serve_slow_us > 0;

  struct Pending {
    gsknn::serving::TicketId id = 0;
    int query = 0;
    int k = 1;
    std::size_t gen_at_submit = 0;
    bool cancelled = false;
    bool budgeted = false;
  };
  std::vector<Pending> pending;

  const int ops = 40 + static_cast<int>(rng.below(60));
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t roll = rng.below(100);
    if (roll < 60) {  // submit (sometimes budgeted)
      Pending p;
      p.query = static_cast<int>(rng.below(static_cast<std::uint64_t>(npts)));
      p.k = 1 + static_cast<int>(rng.below(kmax));
      p.gen_at_submit = generations.size() - 1;
      gsknn::serving::SubmitOptions so;
      so.lane = (rng.below(2) != 0u) ? gsknn::serving::Lane::kBulk
                                     : gsknn::serving::Lane::kInteractive;
      if (rng.below(4) == 0u) {
        so.budget = std::chrono::milliseconds(
            1 + static_cast<std::int64_t>(rng.below(50)));
        p.budgeted = true;
      }
      const gsknn::serving::SubmitResult r =
          srv.submit_ex("cz", p.query, p.k, so);
      if (r.ticket == 0) {
        // Predictive admission, the breaker, or the queue cap refused this
        // submit; a refusal must carry kResourceExhausted and is legal
        // whenever chaos or a budget is in play.
        if (r.status != Status::kResourceExhausted) {
          std::fprintf(stderr, "chaos: submit refused with %s\n",
                       gsknn::status_name(r.status));
          return false;
        }
        continue;
      }
      p.id = r.ticket;
      pending.push_back(p);
    } else if (roll < 72) {  // cancel a random live ticket
      if (!pending.empty()) {
        Pending& p = pending[rng.below(pending.size())];
        if (!p.cancelled && srv.cancel(p.id)) p.cancelled = true;
      }
    } else if (roll < 86) {  // insert fresh unique ids
      const int c = 1 + static_cast<int>(rng.below(6));
      if (next_unused + c <= npts) {
        std::vector<int> add(static_cast<std::size_t>(c));
        for (auto& v : add) v = next_unused++;
        const Status s = srv.insert_refs("cz", add);
        if (s == Status::kResourceExhausted) continue;  // injected alloc fail
        if (s != Status::kOk) {
          std::fprintf(stderr, "chaos: insert_refs failed: %s\n",
                       gsknn::status_name(s));
          return false;
        }
        shadow.insert(shadow.end(), add.begin(), add.end());
        generations.push_back(shadow);
      }
    } else {  // erase the most recent ids (keeps the floor)
      const int c = 1 + static_cast<int>(rng.below(6));
      if (static_cast<int>(shadow.size()) - c >= floor_refs) {
        const std::vector<int> del(shadow.end() - c, shadow.end());
        const Status s = srv.erase_refs("cz", del);
        if (s == Status::kResourceExhausted) continue;
        if (s != Status::kOk) {
          std::fprintf(stderr, "chaos: erase_refs failed: %s\n",
                       gsknn::status_name(s));
          return false;
        }
        shadow.resize(shadow.size() - static_cast<std::size_t>(c));
        generations.push_back(shadow);
      }
    }
  }

  for (const Pending& p : pending) {
    const Status st = srv.wait(p.id);
    // Terminal-state stability: a second wait must agree (a ticket that
    // re-enters the queue after completing would double-complete).
    if (srv.wait(p.id) != st) {
      std::fprintf(stderr, "chaos: ticket %llu changed terminal status\n",
                   static_cast<unsigned long long>(p.id));
      return false;
    }
    std::vector<int> rid(static_cast<std::size_t>(p.k));
    std::vector<double> rd(static_cast<std::size_t>(p.k));
    const int got = srv.result(p.id, rid, rd);
    if (st != Status::kOk) {
      if (got != -1) {
        std::fprintf(stderr, "chaos: non-ok ticket %llu (%s) has a result\n",
                     static_cast<unsigned long long>(p.id),
                     gsknn::status_name(st));
        return false;
      }
      const bool legal =
          (st == Status::kCancelled && p.cancelled) ||
          (st == Status::kStale) ||
          (st == Status::kDeadlineExceeded && p.budgeted) ||
          (st == Status::kResourceExhausted && (chaos_armed || p.budgeted));
      if (!legal) {
        std::fprintf(stderr, "chaos: ticket %llu illegal terminal %s "
                             "(cancelled=%d budgeted=%d armed=%d)\n",
                     static_cast<unsigned long long>(p.id),
                     gsknn::status_name(st), p.cancelled ? 1 : 0,
                     p.budgeted ? 1 : 0, chaos_armed ? 1 : 0);
        return false;
      }
      continue;
    }
    if (got != p.k) {
      std::fprintf(stderr, "chaos: ticket %llu returned %d of %d rows\n",
                   static_cast<unsigned long long>(p.id), got, p.k);
      return false;
    }
    // Bitwise identity against the clean shadow generations, chaos or not.
    // The cold oracle runs with the hooks disarmed — it is the reference.
    gsknn::fault::reset();
    const auto match = gsknn::test::match_shadow_generation(
        X, p.query, rid, rd, generations, p.gen_at_submit);
    if (match == gsknn::test::ShadowMatch::kOracleFailed) {
      std::fprintf(stderr, "chaos: cold oracle failed\n");
      return false;
    }
    gsknn::fault::configure(t.fc);
    if (match == gsknn::test::ShadowMatch::kNoMatch) {
      std::fprintf(stderr,
                   "chaos: ticket %llu (query %d k %d) matches no clean "
                   "generation [%zu..%zu] — chaos corrupted a kOk result\n",
                   static_cast<unsigned long long>(p.id), p.query, p.k,
                   p.gen_at_submit, generations.size() - 1);
      return false;
    }
  }
  gsknn::fault::reset();
  return check_accounting(srv, t);
}

/// Storm family: everything at once. Tiny queues and retention FIFO,
/// aggressive watchdog/breaker, a mutator thread churning the reference
/// set and a canceller thread firing at random tickets while this thread
/// floods both lanes. The oracle here is accounting, not results: every
/// ticket terminal, stats balanced, counters reconciled.
bool chaos_storm_trial(const ChaosTrial& t, gsknn::Xoshiro256& rng) {
  const int d = 8;
  const int npts = 160;
  PointTable X(d, npts);
  for (int i = 0; i < npts; ++i) {
    for (int r = 0; r < d; ++r) X.col(i)[r] = rng.uniform(-1.0, 1.0);
  }
  X.compute_norms();

  gsknn::serving::ServerOptions sopt;
  sopt.workers = t.workers;
  sopt.max_fused_queries = t.max_fused;
  sopt.max_queue_depth = 4 + static_cast<int>(rng.below(12));
  sopt.watchdog_factor = 0.5;
  sopt.watchdog_floor = std::chrono::milliseconds(1);
  sopt.breaker_threshold = 2 + static_cast<int>(rng.below(3));
  sopt.breaker_cooldown = std::chrono::milliseconds(2);
  sopt.retry.max_attempts = 1 + static_cast<int>(rng.below(3));
  sopt.retry.base = std::chrono::microseconds(50);
  // Retention pressure: terminal tickets get evicted under the harness.
  sopt.max_retained_tickets = 8;
  gsknn::serving::Server srv(X, sopt);

  std::vector<int> ids(96);
  for (int i = 0; i < 96; ++i) ids[static_cast<std::size_t>(i)] = i;
  if (srv.create_refs("st", ids) != Status::kOk) {
    std::fprintf(stderr, "storm: create_refs failed\n");
    return false;
  }

  FaultGuard guard;
  gsknn::fault::configure(t.fc);

  std::atomic<bool> stop{false};
  std::vector<gsknn::serving::TicketId> tickets;
  std::mutex tickets_mu;

  std::thread mutator([&] {
    gsknn::Xoshiro256 mrng(t.seed ^ 0x1157);
    int hi = 96;
    while (!stop.load(std::memory_order_relaxed)) {
      if (hi < npts && mrng.below(2) == 0u) {
        const std::vector<int> add = {hi++};
        (void)srv.insert_refs("st", add);
      } else if (hi > 96) {
        const std::vector<int> del = {--hi};
        (void)srv.erase_refs("st", del);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::thread canceller([&] {
    gsknn::Xoshiro256 crng(t.seed ^ 0xca9c);
    while (!stop.load(std::memory_order_relaxed)) {
      gsknn::serving::TicketId victim = 0;
      {
        std::lock_guard<std::mutex> lk(tickets_mu);
        if (!tickets.empty()) victim = tickets[crng.below(tickets.size())];
      }
      if (victim != 0) (void)srv.cancel(victim);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  const int bursts = 6 + static_cast<int>(rng.below(6));
  std::uint64_t accepted = 0;
  for (int b = 0; b < bursts; ++b) {
    for (int i = 0; i < 12; ++i) {
      gsknn::serving::SubmitOptions so;
      so.lane = (i % 3 == 0) ? gsknn::serving::Lane::kBulk
                             : gsknn::serving::Lane::kInteractive;
      if (rng.below(3) == 0u) {
        so.budget = std::chrono::milliseconds(
            1 + static_cast<std::int64_t>(rng.below(8)));
      }
      const gsknn::serving::SubmitResult r = srv.submit_ex(
          "st", static_cast<int>(rng.below(npts)),
          1 + static_cast<int>(rng.below(6)), so);
      if (r.ticket == 0) {
        if (r.status != Status::kResourceExhausted) {
          std::fprintf(stderr, "storm: refusal carried %s\n",
                       gsknn::status_name(r.status));
          stop.store(true);
          mutator.join();
          canceller.join();
          return false;
        }
        continue;
      }
      ++accepted;
      std::lock_guard<std::mutex> lk(tickets_mu);
      tickets.push_back(r.ticket);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Drain: every accepted ticket must reach a terminal state. Retention
  // eviction may have forgotten a finished ticket already — wait() then
  // reports kBadIndex, which proves it terminal (only finalized tickets
  // enter the eviction FIFO).
  for (const gsknn::serving::TicketId id : tickets) {
    (void)srv.wait(id);
  }
  stop.store(true);
  mutator.join();
  canceller.join();
  gsknn::fault::reset();

  const auto st = srv.stats();
  if (st.submitted != accepted) {
    std::fprintf(stderr, "storm: accepted %llu but stats saw %llu\n",
                 static_cast<unsigned long long>(accepted),
                 static_cast<unsigned long long>(st.submitted));
    return false;
  }
  return check_accounting(srv, t);
}

}  // namespace

int main(int argc, char** argv) {
  gsknn::test::FuzzRun run{20.0, 0xC4A05ull};
  long storms = 0;
  ChaosTrial t;

  const int rc = gsknn::test::fuzz_loop(
      argc, argv, "fuzz_chaos", run,
      [&](gsknn::Xoshiro256& rng, long trials) {
        t = ChaosTrial{};
        t.seed = run.seed;
        t.index = trials;
        t.storm = (trials % 4 == 3);
        t.workers = 1 + static_cast<int>(rng.below(3));
        t.max_fused = 1 + static_cast<int>(rng.below(8));
        // Independent knobs, each sometimes off — the all-off corner keeps
        // the chaos harness honest against the plain round-7 contract.
        if (rng.below(2) != 0u) {
          t.fc.cancel_every = 2 + static_cast<std::int64_t>(rng.below(7));
        }
        if (rng.below(3) == 0u) {
          t.fc.alloc_every = 50 + static_cast<std::int64_t>(rng.below(350));
        }
        if (rng.below(2) != 0u) {
          t.fc.slow_us = static_cast<std::int64_t>(rng.below(200));
        }
        if (rng.below(2) != 0u) {
          t.fc.serve_slow_us = static_cast<std::int64_t>(rng.below(2000));
        }

        gsknn::flightrec::clear();
        storms += t.storm ? 1 : 0;
        bool ok = false;
        try {
          ok = t.storm ? chaos_storm_trial(t, rng) : chaos_oracle_trial(t, rng);
        } catch (...) {
          gsknn::fault::reset();
          throw;
        }
        gsknn::fault::reset();
        return ok;
      },
      [&] { print_repro(t); });
  if (rc != 0) return rc;

  std::printf("fuzz_chaos: %ld trials OK in %.1fs (%ld storm) (seed=0x%llx)\n",
              run.trials, run.seconds, storms,
              static_cast<unsigned long long>(run.seed));
  return 0;
}
