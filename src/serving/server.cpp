// Serving runtime (gsknn/serving/server.hpp): admission queue, batch
// fusion over PackedRefs, model-driven dispatch, overload protection.
//
// Threading model: plain std::thread workers and one mutex/two condvars —
// deliberately not OpenMP, so the runtime works (and is tsan-checkable)
// under the no-OpenMP presets; OpenMP parallelism lives inside the fused
// call — one m-row warm kernel call per group, whose 4th loop splits the
// group's rows over kernel_threads — so a group streams the leased
// reference panels once however many tickets it fuses. The server
// lock guards queues/tickets/registry only; fused kernel calls run outside
// it, so submit/poll/cancel stay responsive under load. A monitor thread
// ticks ~1ms for the watchdog/breaker clocks and refreshes the derived
// health state from the metrics rolling window every ~100ms; it fires a
// stuck call's CancelToken (lock-free) rather than touching the kernel.
#include "gsknn/serving/server.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gsknn/common/fault.hpp"
#include "gsknn/common/flightrec.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/core/packed_refs.hpp"
#include "gsknn/model/perf_model.hpp"

namespace gsknn::serving {

namespace {

metrics::EntryPoint lane_entry(Lane lane) {
  return lane == Lane::kInteractive ? metrics::EntryPoint::kServeInteractive
                                    : metrics::EntryPoint::kServeBulk;
}

enum class TState { kQueued, kRunning, kDone };

struct Ticket {
  TicketId id = 0;
  std::shared_ptr<PackedRefs> refs;  ///< resolved at submit; drop-safe
  int query = 0;
  int k = 0;
  Lane lane = Lane::kInteractive;
  std::optional<Deadline> deadline;
  std::uint64_t submit_ns = 0;
  double est = 0.0;  ///< §2.6 predicted runtime (scheduling key)
  int requeues = 0;
  int attempts = 0;  ///< stale/cancelled deferrals (RetryPolicy axis)
  /// Backoff gate: not eligible for dispatch before this instant.
  std::optional<Deadline> not_before;
  TState state = TState::kQueued;
  Status status = Status::kInternal;
  // Terminal kOk payload: neighbors ascending by distance.
  std::vector<int> out_ids;
  std::vector<double> out_dists;
};

using TicketPtr = std::shared_ptr<Ticket>;

/// Breaker state machine: closed -(threshold consecutive infra failures)->
/// open -(cooldown quiet)-> half-open -(fused success, or 2x cooldown
/// idle)-> closed; a failure while half-open re-opens.
enum class Breaker { kClosed, kOpen, kHalfOpen };

/// Per-worker watchdog slot. All fields are guarded by the server mutex
/// except the token, which the kernel polls lock-free while the monitor
/// cancels it.
struct ActiveCall {
  CancelToken token;
  bool active = false;
  bool fired = false;
  std::uint64_t start_ns = 0;
  double limit_s = 0.0;  ///< max(watchdog_floor, factor x predicted)
  Lane lane = Lane::kInteractive;
};

/// Infrastructure failures feed the breaker: kInternal (unexpected throw),
/// kResourceExhausted (allocation failed mid-fuse) and kCancelled — user
/// cancel() only reaches *queued* tickets, so a kCancelled fused outcome can
/// only come from the watchdog or fault injection.
bool infra_failure(Status s) {
  return s == Status::kInternal || s == Status::kResourceExhausted ||
         s == Status::kCancelled;
}

}  // namespace

const char* health_state_name(HealthState h) {
  switch (h) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kUnhealthy:
      return "unhealthy";
  }
  return "unknown";
}

struct Server::Impl {
  const PointTable* X = nullptr;
  ServerOptions opt;

  mutable std::mutex mu;
  std::condition_variable cv_work;  ///< workers: queue non-empty or stopping
  std::condition_variable cv_done;  ///< waiters: some ticket went terminal
  std::condition_variable cv_mon;   ///< monitor: tick timer / stopping
  bool stopping = false;
  std::uint64_t next_id = 1;
  std::unordered_map<TicketId, TicketPtr> tickets;
  std::deque<TicketPtr> queue[kNumLanes];
  /// Terminal tickets in completion order, for max_retained_tickets FIFO
  /// eviction (ids may already be gone from `tickets` — erase is lenient).
  std::deque<TicketId> terminal_fifo;
  std::unordered_map<std::string, std::shared_ptr<PackedRefs>> refs;
  Stats st;

  // ---- admission model state (guarded by mu) ------------------------------
  /// Sum of §2.6 estimates over *queued* tickets per lane — the drain
  /// forecast predictive admission prices a new ticket against.
  double queued_est_s[kNumLanes] = {0.0, 0.0};
  int queued_count[kNumLanes] = {0, 0};
  int running_count = 0;
  /// EWMA of measured/predicted fused runtime: corrects the drain forecast
  /// when the machine is slower than the model thinks (chaos, contention).
  double ewma_ratio = 1.0;
  std::minstd_rand rng{0x5eed};  ///< backoff jitter; cheap, under mu

  // ---- breaker / health state (guarded by mu) -----------------------------
  Breaker breaker = Breaker::kClosed;
  int infra_streak = 0;
  std::uint64_t last_infra_ns = 0;
  std::uint64_t last_watchdog_ns = 0;  ///< 0 = never fired
  bool slo_pressure = false;           ///< monitor-computed, ~100ms cadence
  HealthState health_state = HealthState::kHealthy;

  std::deque<ActiveCall> active;  ///< one slot per worker (stable addresses)
  std::vector<std::thread> workers;
  std::thread monitor;

  // ---- helpers (all *_locked require mu held) -----------------------------

  double backoff_jitter() {
    // Uniform in [-jitter, +jitter] as a fraction of the delay.
    const double u = static_cast<double>(rng()) /
                     static_cast<double>(std::minstd_rand::max());
    return (2.0 * u - 1.0) * opt.retry.jitter;
  }

  /// Forget the oldest terminal tickets beyond max_retained_tickets. Never
  /// evicts the just-finalized ticket (cap >= 1 keeps it at the FIFO back).
  void evict_retained_locked() {
    if (opt.max_retained_tickets == 0) return;
    while (terminal_fifo.size() > opt.max_retained_tickets) {
      tickets.erase(terminal_fifo.front());
      terminal_fifo.pop_front();
      ++st.evicted_tickets;
    }
  }

  /// Terminal transition from any live state: queue/running accounting,
  /// per-lane metrics sample (latency = completion - submit, queueing
  /// included), retention FIFO, waiter wakeup.
  void finalize_locked(Ticket& t, Status status) {
    const int lane = static_cast<int>(t.lane);
    if (t.state == TState::kQueued) {
      --queued_count[lane];
      queued_est_s[lane] -= t.est;
      if (queued_count[lane] == 0 || queued_est_s[lane] < 0.0) {
        queued_est_s[lane] = std::max(0.0, queued_est_s[lane]);
      }
    } else if (t.state == TState::kRunning) {
      --running_count;
    }
    t.state = TState::kDone;
    t.status = status;
    switch (status) {
      case Status::kOk:
        ++st.completed;
        break;
      case Status::kCancelled:
        ++st.cancelled;
        metrics::add_counter(metrics::Counter::kServeCancelled);
        break;
      case Status::kDeadlineExceeded:
        ++st.expired;
        metrics::add_counter(metrics::Counter::kServeExpired);
        break;
      default:
        ++st.failed;
        break;
    }
    if (metrics::enabled()) {
      const std::uint64_t now = metrics::now_ns();
      metrics::record_call_at(now, lane_entry(t.lane),
                              static_cast<int>(status), now - t.submit_ns, 1,
                              t.refs ? t.refs->size() : 0, X->dim(), t.k);
    }
    terminal_fifo.push_back(t.id);
    evict_retained_locked();
    cv_done.notify_all();
  }

  /// kQueued bookkeeping + queue push + worker wakeup (ticket state must
  /// already be set by the caller path: fresh submit or requeue).
  void enqueue_locked(TicketPtr t) {
    const int lane = static_cast<int>(t->lane);
    t->state = TState::kQueued;
    ++queued_count[lane];
    queued_est_s[lane] += t->est;
    queue[lane].push_back(std::move(t));
    cv_work.notify_one();
  }

  /// Re-admit a running ticket whose fused call was starved (cause
  /// kDeadlineExceeded — immediate, uncapped: its own budget bounds it),
  /// raced by a mutator (kStale) or cancelled by the watchdog/faults
  /// (kCancelled). The latter two burn a RetryPolicy attempt and back off.
  void requeue_locked(TicketPtr t, Status cause) {
    // State stays kRunning until the branch resolves: the finalize paths
    // below rely on finalize_locked's own kRunning accounting, so the
    // --running_count here would double-count them.
    t->not_before.reset();
    if (cause == Status::kStale || cause == Status::kCancelled) {
      if (++t->attempts >= opt.retry.max_attempts) {
        // Exhausted: a persistent epoch race stays kStale; persistent
        // watchdog/fault cancellation reads as capacity loss.
        finalize_locked(*t, cause == Status::kStale
                                ? Status::kStale
                                : Status::kResourceExhausted);
        return;
      }
      double delay_s = std::chrono::duration<double>(opt.retry.base).count() *
                       std::pow(opt.retry.multiplier, t->attempts - 1);
      delay_s = std::min(delay_s, 1.0) * (1.0 + backoff_jitter());
      const auto delay = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::duration<double>(std::max(0.0, delay_s)));
      const Deadline eligible = std::chrono::steady_clock::now() + delay;
      if (t->deadline.has_value() && eligible >= *t->deadline) {
        finalize_locked(*t, Status::kDeadlineExceeded);
        return;
      }
      t->not_before = eligible;
    }
    --running_count;
    ++t->requeues;
    ++st.requeues;
    enqueue_locked(std::move(t));
  }

  bool degraded_locked() const {
    return health_state != HealthState::kHealthy;
  }

  /// Recompute the derived health state and publish it on change.
  void update_health_locked(std::uint64_t now_ns) {
    // A watchdog fire marks its worker suspect for ~2s; the mark decays so
    // health can recover once fused calls behave again.
    const bool suspect =
        last_watchdog_ns != 0 && now_ns - last_watchdog_ns < 2'000'000'000ull;
    HealthState h = HealthState::kHealthy;
    if (breaker == Breaker::kOpen) {
      h = HealthState::kUnhealthy;
    } else if (breaker == Breaker::kHalfOpen || suspect || slo_pressure) {
      h = HealthState::kDegraded;
    }
    if (h != health_state) {
      metrics::move_serve_health(static_cast<int>(health_state),
                                 static_cast<int>(h));
      health_state = h;
    }
  }

  void breaker_record_locked(bool failure, std::uint64_t now_ns) {
    if (failure) {
      ++infra_streak;
      last_infra_ns = now_ns;
      if (breaker != Breaker::kOpen && infra_streak >= opt.breaker_threshold) {
        breaker = Breaker::kOpen;
        ++st.breaker_opens;
        metrics::add_counter(metrics::Counter::kServeBreakerOpen);
        flightrec::record(flightrec::Kind::kServeBreaker, -1, 0, 1);
      }
    } else {
      infra_streak = 0;
      if (breaker == Breaker::kHalfOpen) {
        breaker = Breaker::kClosed;
        flightrec::record(flightrec::Kind::kServeBreaker, -1, 0, 0);
      }
    }
    update_health_locked(now_ns);
  }

  /// Time-driven breaker transitions (monitor tick): open -> half-open
  /// after a quiet cooldown, half-open -> closed after 2x cooldown idle
  /// (no traffic to probe with — an idle server must read healthy).
  void breaker_tick_locked(std::uint64_t now_ns) {
    const auto cool = static_cast<std::uint64_t>(
        std::max<std::int64_t>(1, opt.breaker_cooldown.count()));
    const std::uint64_t quiet = now_ns - last_infra_ns;
    if (breaker == Breaker::kOpen && quiet > cool) {
      breaker = Breaker::kHalfOpen;
    }
    if (breaker == Breaker::kHalfOpen && quiet > 2 * cool) {
      breaker = Breaker::kClosed;
      flightrec::record(flightrec::Kind::kServeBreaker, -1, 0, 0);
    }
  }

  /// Watchdog scan (monitor tick): cancel any fused call that has run past
  /// its limit. The token fire is lock-free; the kernel notices at its next
  /// block-boundary poll and unwinds kCancelled with clean partial rows.
  void watchdog_scan_locked(std::uint64_t now_ns) {
    if (opt.watchdog_factor <= 0.0) return;
    for (ActiveCall& a : active) {
      if (!a.active || a.fired) continue;
      const double elapsed_s =
          static_cast<double>(now_ns - a.start_ns) * 1e-9;
      if (elapsed_s <= a.limit_s) continue;
      a.token.cancel();
      a.fired = true;
      last_watchdog_ns = now_ns;
      ++st.watchdog_fires;
      metrics::add_counter(metrics::Counter::kServeWatchdogFires);
      flightrec::record(flightrec::Kind::kServeWatchdog,
                        static_cast<int>(a.lane), 0, now_ns - a.start_ns);
    }
  }

  /// Pop the next fused group off `lane`: evict doomed (already-expired)
  /// queued tickets, skip backing-off ones, then seed by the model's
  /// first-termination order (earliest deadline, then smallest estimate);
  /// every eligible ticket sharing the seed's fusion key — refs set and
  /// exact k; precision and norm layout class are Server-wide — rides
  /// along, in first-termination order, up to the (health-scaled) fusion
  /// cap. `earliest` reports the soonest backoff expiry when nothing is
  /// eligible, so the caller can sleep precisely.
  std::vector<TicketPtr> admit_locked(int lane,
                                      const Deadline& now,
                                      std::optional<Deadline>* earliest) {
    std::deque<TicketPtr>& q = queue[lane];
    // Lazily drop entries cancel()/eviction already finalized.
    while (!q.empty() && q.front()->state != TState::kQueued) q.pop_front();
    std::vector<TicketPtr> live;
    live.reserve(q.size());
    for (const TicketPtr& t : q) {
      if (t->state != TState::kQueued) continue;
      if (opt.predictive_admission && t->deadline.has_value() &&
          now >= *t->deadline) {
        // Doomed: its budget expired while queued — fail it now instead of
        // burning a fused slot discovering that in the kernel.
        ++st.doomed_evicted;
        metrics::add_counter(metrics::Counter::kServeDoomedEvicted);
        finalize_locked(*t, Status::kDeadlineExceeded);
        continue;
      }
      if (t->not_before.has_value() && now < *t->not_before) {
        if (earliest != nullptr &&
            (!earliest->has_value() || *t->not_before < **earliest)) {
          *earliest = t->not_before;
        }
        continue;  // backing off; stays queued
      }
      live.push_back(t);
    }
    if (live.empty()) {
      // Compact away finalized stragglers so the deque cannot grow
      // unboundedly while every survivor backs off.
      std::deque<TicketPtr> rest;
      for (TicketPtr& t : q) {
        if (t->state == TState::kQueued) rest.push_back(std::move(t));
      }
      q.swap(rest);
      return {};
    }
    std::vector<double> est(live.size());
    std::vector<double> dls(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      est[i] = live[i]->est;
      if (live[i]->deadline.has_value()) {
        // Remaining budget in seconds (can go negative: most-overdue first,
        // so expiry is discovered and reported promptly).
        dls[i] =
            std::chrono::duration<double>(*live[i]->deadline - now).count();
      } else {
        dls[i] = std::numeric_limits<double>::infinity();
      }
    }
    const std::vector<int> order = model::order_first_termination(est, dls);
    const TicketPtr& seed = live[static_cast<std::size_t>(order[0])];
    // Degraded operation narrows fusion: smaller fused calls bound the
    // blast radius of one slow dispatch while the runtime recovers.
    // Scheduling-level only — member results are unaffected.
    const int fuse_cap = degraded_locked()
                             ? std::max(1, opt.max_fused_queries / 4)
                             : opt.max_fused_queries;
    std::vector<TicketPtr> group;
    for (const int oi : order) {
      const TicketPtr& t = live[static_cast<std::size_t>(oi)];
      if (t->refs != seed->refs || t->k != seed->k) continue;
      group.push_back(t);
      if (static_cast<int>(group.size()) >= fuse_cap) break;
    }
    for (const TicketPtr& t : group) {
      t->state = TState::kRunning;
      --queued_count[lane];
      queued_est_s[lane] -= t->est;
      ++running_count;
    }
    if (queued_count[lane] == 0 || queued_est_s[lane] < 0.0) {
      queued_est_s[lane] = std::max(0.0, queued_est_s[lane]);
    }
    // Compact the queue: drop everything no longer queued (the group plus
    // any cancel()-finalized stragglers).
    std::deque<TicketPtr> rest;
    for (TicketPtr& t : q) {
      if (t->state == TState::kQueued) rest.push_back(std::move(t));
    }
    q.swap(rest);
    return group;
  }

  // ---- fused dispatch (mu NOT held on entry) ------------------------------

  void run_fused(std::vector<TicketPtr>& group, int worker_idx) {
    const int m = static_cast<int>(group.size());
    const int k = group[0]->k;
    PackedRefs& r = *group[0]->refs;

    std::vector<int> qids;
    qids.reserve(group.size());
    for (const TicketPtr& t : group) qids.push_back(t->query);
    // The result table's buffers come from the fault-injectable aligned
    // allocator; a bad_alloc here must not escape the worker thread, so the
    // group degrades to kResourceExhausted (infra pressure the breaker
    // sees) instead of terminating the process.
    std::optional<NeighborTable> table_store;
    try {
      table_store.emplace(m, k);
    } catch (const std::bad_alloc&) {
    }
    if (!table_store.has_value()) {
      std::lock_guard<std::mutex> lk(mu);
      breaker_record_locked(true, metrics::now_ns());
      for (TicketPtr& t : group) {
        finalize_locked(*t, Status::kResourceExhausted);
      }
      return;
    }
    NeighborTable& table = *table_store;
    // A fresh table's rows read complete (incomplete_ zero-initialised), so
    // pre-flag them all: the kernel re-marks exactly the rows it finishes,
    // and rows left untouched by an abandoned call (exception unwind, fault
    // skip, early stale/alloc failure) then read incomplete as they must.
    for (int i = 0; i < m; ++i) table.mark_row_incomplete(i);

    KnnConfig cfg;
    cfg.norm = opt.norm;
    cfg.threads = opt.kernel_threads;
    // The tightest member budget governs the fused call; members it starves
    // are re-admitted below while their own budget holds.
    std::optional<Deadline> min_dl;
    double predicted_s = 0.0;
    for (const TicketPtr& t : group) {
      predicted_s += t->est;
      if (t->deadline.has_value() &&
          (!min_dl.has_value() || *t->deadline < *min_dl)) {
        min_dl = t->deadline;
      }
    }
    cfg.deadline = min_dl;

    // Arm the watchdog slot: the monitor cancels this token once the call
    // overruns max(floor, factor x predicted). Raw model prediction, not
    // EWMA-corrected — a systematically slow machine is exactly what the
    // watchdog exists to flag.
    ActiveCall& slot = active[static_cast<std::size_t>(worker_idx)];
    const std::uint64_t start_ns = metrics::now_ns();
    {
      std::lock_guard<std::mutex> lk(mu);
      slot.token.reset();
      slot.active = true;
      slot.fired = false;
      slot.start_ns = start_ns;
      slot.limit_s = std::max(
          std::chrono::duration<double>(opt.watchdog_floor).count(),
          opt.watchdog_factor * predicted_s);
      slot.lane = group[0]->lane;
    }
    cfg.cancel = &slot.token;

    if (flightrec::enabled()) {
      flightrec::record(flightrec::Kind::kServeFuse,
                        static_cast<int>(group[0]->lane), 0,
                        static_cast<std::uint64_t>(m), m, r.size(), X->dim(),
                        k);
    }
    metrics::add_counter(metrics::Counter::kServeFusedCalls);
    metrics::add_counter(metrics::Counter::kServeFusedQueries,
                         static_cast<std::uint64_t>(m));

    // Chaos hook: a "stuck worker" delay the watchdog must notice. When it
    // already fired during the stall, skip the kernel — the call is being
    // abandoned either way. `ran` gates the row_complete check below: a
    // fresh table's rows all read complete, so consulting it when the
    // kernel never executed would finalize tickets kOk with sentinel rows.
    Status s = Status::kInternal;
    bool ran = false;
    fault::inject_serve_delay();
    if (slot.token.cancelled()) {
      s = Status::kCancelled;
    } else {
      ran = true;
      // One m-row warm kernel call: every fused row shares each leased
      // reference panel (§2.5), so the group streams the references once.
      // kEpochAny resolves to the call's entry epoch: the whole group
      // computes over one reference generation, racing mutators surface as
      // kStale on the rows left unfinished.
      s = knn_kernel_status(r, qids, table, cfg, {}, kEpochAny);
    }
    const std::uint64_t end_ns = metrics::now_ns();

    std::lock_guard<std::mutex> lk(mu);
    slot.active = false;
    // The measured/predicted EWMA keeps the admission drain forecast honest
    // when the machine runs slower than the model thinks.
    if (predicted_s > 0.0) {
      const double ratio = std::clamp(
          static_cast<double>(end_ns - start_ns) * 1e-9 / predicted_s, 0.25,
          64.0);
      ewma_ratio = 0.8 * ewma_ratio + 0.2 * ratio;
    }
    breaker_record_locked(infra_failure(s), end_ns);
    ++st.fused_calls;
    st.fused_queries += static_cast<std::uint64_t>(m);
    for (int i = 0; i < m; ++i) {
      TicketPtr& t = group[static_cast<std::size_t>(i)];
      if (ran && table.row_complete(i)) {
        // Complete rows are valid results of the resolved generation even
        // when the call as a whole stopped (deadline/stale/cancel hit
        // after their last reference block).
        const auto row = table.sorted_row(i);
        t->out_ids.reserve(row.size());
        t->out_dists.reserve(row.size());
        for (const auto& [dist, id] : row) {
          t->out_dists.push_back(dist);
          t->out_ids.push_back(id);
        }
        finalize_locked(*t, Status::kOk);
        continue;
      }
      if (s == Status::kStale || s == Status::kCancelled) {
        // Epoch race or watchdog/fault cancellation: the member itself is
        // fine — retry with backoff until RetryPolicy says otherwise.
        requeue_locked(std::move(t), s);
        continue;
      }
      if (s == Status::kDeadlineExceeded) {
        if (t->deadline.has_value() && deadline_expired(*t->deadline)) {
          finalize_locked(*t, Status::kDeadlineExceeded);
        } else {
          // Starved by a fused neighbor's tighter budget; its own holds, so
          // re-admit (progress guaranteed: expired members leave the group).
          requeue_locked(std::move(t), Status::kDeadlineExceeded);
        }
        continue;
      }
      finalize_locked(*t, s == Status::kOk ? Status::kInternal : s);
    }
  }

  void worker_loop(int worker_idx) {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      cv_work.wait(lk, [&] {
        return stopping || queued_count[0] + queued_count[1] > 0;
      });
      if (stopping) return;
      const Deadline now = std::chrono::steady_clock::now();
      std::optional<Deadline> earliest;
      // Interactive drains strictly before bulk.
      std::vector<TicketPtr> group = admit_locked(0, now, &earliest);
      if (group.empty()) group = admit_locked(1, now, &earliest);
      if (group.empty()) {
        if (earliest.has_value()) {
          // Everything eligible is backing off: sleep until the soonest
          // retry (or a new submit / stop wakes us).
          cv_work.wait_until(lk, *earliest);
        }
        continue;
      }
      lk.unlock();
      run_fused(group, worker_idx);
      lk.lock();
    }
  }

  /// SLO pressure: burn rates over the metrics rolling window, gated on
  /// *recent* traffic (last 5 wall seconds) so a quiesced server always
  /// recovers to healthy regardless of what the 60s window still holds.
  static bool compute_slo_pressure() {
    const metrics::MetricsSnapshot snap = metrics::snapshot();
    std::uint64_t recent_calls = 0;
    for (int i = 0; i < metrics::kWindowBuckets; ++i) {
      if (snap.window_epoch[i] == 0) continue;
      if (snap.window_now_sec < snap.window_epoch[i]) continue;
      if (snap.window_now_sec - snap.window_epoch[i] >= 5) continue;
      for (int s = 0; s < metrics::kStatusCount; ++s) {
        recent_calls += snap.window_status[i][s];
      }
    }
    if (recent_calls == 0) return false;
    return snap.window_latency_burn_rate() > 2.0 ||
           snap.window_availability_burn_rate() > 2.0;
  }

  void monitor_loop() {
    std::uint64_t last_slo_ns = 0;
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      cv_mon.wait_for(lk, std::chrono::milliseconds(1),
                      [&] { return stopping; });
      if (stopping) return;
      const std::uint64_t now = metrics::now_ns();
      watchdog_scan_locked(now);
      breaker_tick_locked(now);
      if (now - last_slo_ns >= 100'000'000ull) {
        last_slo_ns = now;
        lk.unlock();
        const bool pressure = compute_slo_pressure();
        lk.lock();
        if (stopping) return;
        slo_pressure = pressure;
      }
      update_health_locked(now);
    }
  }
};

Server::Server(const PointTable& X, const ServerOptions& opt)
    : impl_(std::make_unique<Impl>()) {
  impl_->X = &X;
  impl_->opt = opt;
  impl_->opt.workers = std::max(1, opt.workers);
  impl_->opt.kernel_threads = std::max(0, opt.kernel_threads);
  impl_->opt.max_queue_depth = std::max(1, opt.max_queue_depth);
  impl_->opt.max_fused_queries = std::max(1, opt.max_fused_queries);
  impl_->opt.retry.max_attempts = std::max(1, opt.retry.max_attempts);
  impl_->opt.retry.multiplier = std::max(1.0, opt.retry.multiplier);
  impl_->opt.retry.jitter = std::clamp(opt.retry.jitter, 0.0, 1.0);
  if (impl_->opt.retry.base.count() < 0) {
    impl_->opt.retry.base = std::chrono::nanoseconds(0);
  }
  impl_->opt.breaker_threshold = std::max(1, opt.breaker_threshold);
  if (impl_->opt.breaker_cooldown.count() < 1) {
    impl_->opt.breaker_cooldown = std::chrono::milliseconds(1);
  }
  metrics::move_serve_health(-1, static_cast<int>(HealthState::kHealthy));
  for (int i = 0; i < impl_->opt.workers; ++i) impl_->active.emplace_back();
  impl_->workers.reserve(static_cast<std::size_t>(impl_->opt.workers));
  for (int i = 0; i < impl_->opt.workers; ++i) {
    impl_->workers.emplace_back([this, i] { impl_->worker_loop(i); });
  }
  impl_->monitor = std::thread([this] { impl_->monitor_loop(); });
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stopping = true;
  }
  impl_->cv_work.notify_all();
  impl_->cv_mon.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  impl_->monitor.join();
  // Drain: whatever is still queued fails kCancelled so waiters unblock.
  // Finalization may evict map entries (retention FIFO), so snapshot the
  // live tickets before touching any.
  std::vector<TicketPtr> live;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (auto& [id, t] : impl_->tickets) {
      if (t->state != TState::kDone) live.push_back(t);
    }
    for (const TicketPtr& t : live) {
      impl_->finalize_locked(*t, Status::kCancelled);
    }
    metrics::move_serve_health(static_cast<int>(impl_->health_state), -1);
  }
}

Status Server::create_refs(std::string_view name, std::span<const int> ids) {
  auto r = std::make_shared<PackedRefs>();
  PackedRefs::Options ropt;
  ropt.norm = impl_->opt.norm;
  ropt.blocking = impl_->opt.blocking;
  ropt.budget_bytes = impl_->opt.budget_bytes;
  const Status s = r->build(*impl_->X, ids, ropt);
  if (s != Status::kOk) return s;
  std::lock_guard<std::mutex> lk(impl_->mu);
  const auto [it, inserted] =
      impl_->refs.emplace(std::string(name), std::move(r));
  (void)it;
  return inserted ? Status::kOk : Status::kInvalidArgument;
}

Status Server::insert_refs(std::string_view name, std::span<const int> ids) {
  std::shared_ptr<PackedRefs> r;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    const auto it = impl_->refs.find(std::string(name));
    if (it == impl_->refs.end()) return Status::kInvalidArgument;
    r = it->second;
  }
  // Outside the server lock: the cache has its own lock, and in-flight
  // fused calls may hold it while packing.
  return r->insert(ids);
}

Status Server::erase_refs(std::string_view name, std::span<const int> ids) {
  std::shared_ptr<PackedRefs> r;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    const auto it = impl_->refs.find(std::string(name));
    if (it == impl_->refs.end()) return Status::kInvalidArgument;
    r = it->second;
  }
  return r->erase(ids);
}

Status Server::drop_refs(std::string_view name) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->refs.erase(std::string(name)) != 0 ? Status::kOk
                                                   : Status::kInvalidArgument;
}

std::uint64_t Server::refs_epoch(std::string_view name) const {
  std::shared_ptr<PackedRefs> r;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    const auto it = impl_->refs.find(std::string(name));
    if (it == impl_->refs.end()) return ~0ull;
    r = it->second;
  }
  return r->epoch();
}

int Server::refs_size(std::string_view name) const {
  std::shared_ptr<PackedRefs> r;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    const auto it = impl_->refs.find(std::string(name));
    if (it == impl_->refs.end()) return -1;
    r = it->second;
  }
  return r->size();
}

std::optional<PackedRefs::Stats> Server::refs_stats(
    std::string_view name) const {
  std::shared_ptr<PackedRefs> r;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    const auto it = impl_->refs.find(std::string(name));
    if (it == impl_->refs.end()) return std::nullopt;
    r = it->second;
  }
  return r->stats();
}

SubmitResult Server::submit_ex(std::string_view refs, int query, int k,
                               const SubmitOptions& opt) {
  const auto fail = [](Status s, std::chrono::nanoseconds hint =
                                     std::chrono::nanoseconds(0)) {
    SubmitResult r;
    r.status = s;
    r.retry_after = hint;
    return r;
  };
  std::unique_lock<std::mutex> lk(impl_->mu);
  if (impl_->stopping) return fail(Status::kCancelled);
  const auto it = impl_->refs.find(std::string(refs));
  if (it == impl_->refs.end()) return fail(Status::kInvalidArgument);
  const std::shared_ptr<PackedRefs> r = it->second;
  if (query < 0 || query >= impl_->X->size()) return fail(Status::kBadIndex);
  const int n = r->size();
  if (k < 1 || k > n) return fail(Status::kBadConfig);
  const int lane = static_cast<int>(opt.lane);
  if (lane < 0 || lane >= kNumLanes) return fail(Status::kInvalidArgument);

  const auto shed = [&](std::chrono::nanoseconds hint) {
    ++impl_->st.shed_predictive;
    metrics::add_counter(metrics::Counter::kServeShedPredictive);
    flightrec::record(flightrec::Kind::kServeShed, lane, 0,
                      static_cast<std::uint64_t>(hint.count()), 1, n,
                      impl_->X->dim(), k);
    return fail(Status::kResourceExhausted, hint);
  };

  // Breaker open: the runtime is shedding load to recover — bulk traffic
  // is refused outright with the remaining cooldown as the hint;
  // interactive traffic still admits (it is what the recovery protects).
  if (impl_->breaker == Breaker::kOpen && opt.lane == Lane::kBulk) {
    const std::uint64_t now = metrics::now_ns();
    const auto cool = static_cast<std::uint64_t>(
        std::max<std::int64_t>(1, impl_->opt.breaker_cooldown.count()));
    const std::uint64_t until = impl_->last_infra_ns + cool;
    const std::uint64_t left = until > now ? until - now : 0;
    flightrec::record(flightrec::Kind::kServeShed, lane, 0, left, 1, n,
                      impl_->X->dim(), k);
    return fail(Status::kResourceExhausted,
                std::chrono::nanoseconds(static_cast<std::int64_t>(left)));
  }

  // Degraded operation narrows the bulk queue: shedding early keeps the
  // backlog (and its doomed-work tail) short while the runtime recovers.
  int depth_cap = impl_->opt.max_queue_depth;
  if (opt.lane == Lane::kBulk && impl_->degraded_locked()) {
    depth_cap = std::max(1, depth_cap / 8);
  }
  if (impl_->queued_count[lane] >= depth_cap) {
    return fail(Status::kResourceExhausted);
  }

  // §2.6 estimate for the scheduler (shape: one query against the set).
  const BlockingParams bp =
      r->blocking();  // the geometry the fused call will actually run
  const model::ProblemShape shape{1, n, impl_->X->dim(), k};
  const double est = model::predicted_time(
      model::method_for(resolve_variant(1, n, shape.d, k, KnnConfig{})),
      shape, model::machine(), bp);

  // Predictive admission: price the ticket against the lane's drain
  // forecast — queued work ahead of it (interactive always drains first,
  // so bulk pays both backlogs), EWMA-corrected, spread over the workers —
  // and refuse it when its predicted *start* already overruns its budget.
  // The hint is the overrun: retrying that much later would (at equal
  // backlog) fit.
  if (impl_->opt.predictive_admission && opt.budget.has_value()) {
    double wait_s = impl_->queued_est_s[0];
    if (opt.lane == Lane::kBulk) wait_s += impl_->queued_est_s[1];
    wait_s = wait_s * impl_->ewma_ratio /
             static_cast<double>(impl_->opt.workers);
    const double own_s = est * impl_->ewma_ratio;
    const double budget_s =
        std::chrono::duration<double>(*opt.budget).count();
    if (wait_s + own_s > budget_s) {
      const double over_s = wait_s + own_s - budget_s;
      return shed(std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::duration<double>(over_s)));
    }
  }

  auto t = std::make_shared<Ticket>();
  t->id = impl_->next_id++;
  t->refs = r;
  t->query = query;
  t->k = k;
  t->lane = opt.lane;
  if (opt.budget.has_value()) {
    t->deadline = std::chrono::steady_clock::now() + *opt.budget;
  }
  t->submit_ns = metrics::now_ns();
  t->est = est;

  impl_->tickets.emplace(t->id, t);
  ++impl_->st.submitted;
  metrics::add_counter(metrics::Counter::kServeEnqueued);
  const TicketId id = t->id;
  impl_->enqueue_locked(std::move(t));
  if (flightrec::enabled()) {
    flightrec::record(flightrec::Kind::kServeSubmit, lane, 0,
                      static_cast<std::uint64_t>(impl_->queued_count[lane]),
                      1, n, impl_->X->dim(), k);
  }
  lk.unlock();
  SubmitResult res;
  res.ticket = id;
  res.status = Status::kOk;
  return res;
}

TicketId Server::submit(std::string_view refs, int query, int k,
                        const SubmitOptions& opt, Status* err) {
  const SubmitResult r = submit_ex(refs, query, k, opt);
  if (err != nullptr) *err = r.status;
  return r.ticket;
}

bool Server::poll(TicketId t, Status* out) const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  const auto it = impl_->tickets.find(t);
  if (it == impl_->tickets.end()) {
    if (out != nullptr) *out = Status::kBadIndex;
    return true;
  }
  if (it->second->state != TState::kDone) return false;
  if (out != nullptr) *out = it->second->status;
  return true;
}

Status Server::wait(TicketId t) {
  std::unique_lock<std::mutex> lk(impl_->mu);
  const auto it = impl_->tickets.find(t);
  if (it == impl_->tickets.end()) return Status::kBadIndex;
  const TicketPtr ticket = it->second;
  impl_->cv_done.wait(lk, [&] { return ticket->state == TState::kDone; });
  return ticket->status;
}

bool Server::cancel(TicketId t) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  const auto it = impl_->tickets.find(t);
  if (it == impl_->tickets.end()) return false;
  Ticket& ticket = *it->second;
  if (ticket.state != TState::kQueued) return false;  // running or terminal
  // The queue entry stays; admit_locked drops non-kQueued entries lazily.
  impl_->finalize_locked(ticket, Status::kCancelled);
  return true;
}

int Server::result(TicketId t, std::span<int> ids,
                   std::span<double> dists) const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  const auto it = impl_->tickets.find(t);
  if (it == impl_->tickets.end()) return -1;
  const Ticket& ticket = *it->second;
  if (ticket.state != TState::kDone || ticket.status != Status::kOk) {
    return -1;
  }
  const std::size_t n = std::min({ticket.out_ids.size(), ids.size(),
                                  dists.size()});
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = ticket.out_ids[i];
    dists[i] = ticket.out_dists[i];
  }
  return static_cast<int>(n);
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  Stats s = impl_->st;
  s.in_flight = static_cast<std::uint64_t>(impl_->running_count);
  for (int lane = 0; lane < kNumLanes; ++lane) {
    s.queue_depth[lane] = impl_->queued_count[lane];
  }
  return s;
}

double Server::fusion_ratio() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  if (impl_->st.fused_calls == 0) return 0.0;
  return static_cast<double>(impl_->st.fused_queries) /
         static_cast<double>(impl_->st.fused_calls);
}

HealthState Server::health() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->health_state;
}

}  // namespace gsknn::serving
