// gsknn::serving — async query-serving runtime over the packed-panel cache
// (ROADMAP item 1; docs/SERVING.md).
//
// The paper's §2.5 task-parallel mode wins by sharing the packed Rc panels
// across the 4th loop. Server generalizes that insight into a front end:
// callers submit single-query tickets against named PackedRefs sets and the
// admission queue coalesces compatible pending tickets — same refs set
// (hence same epoch at dispatch), same precision (a Server is double
// precision throughout), same norm layout class (fixed per Server), same
// k-bucket — into one fused m-row warm kernel call, so Rc is leased and
// streamed once per fused batch and warm fused traffic moves zero packed
// reference bytes.
//
// Scheduling is model-driven (§2.6): every ticket carries a predicted
// runtime from gsknn::model, dispatch order within a lane is greedy
// first-termination (earliest deadline first, then smallest estimate —
// model::order_first_termination), and the interactive lane always drains
// before the bulk lane. A ticket budget maps onto KnnConfig::deadline for
// the fused call (the minimum member budget governs the kernel); tickets a
// shared deadline starved are re-queued while their own budget holds and
// fail kDeadlineExceeded once it does not.
//
// Consistency: every completed ticket is bitwise-identical to a cold
// synchronous knn_kernel call over the same query and the reference list of
// the generation it ran against — under cancellation, deadline expiry and
// concurrent insert_refs/erase_refs (the cache's snapshot/epoch handshake
// turns races into clean kStale retries, never mixed-generation results).
//
// Overload protection (docs/SERVING.md "Overload & degradation"): submit
// runs *predictive admission* — the same §2.6 estimates the scheduler sorts
// by are summed into a per-lane drain forecast (corrected by an EWMA of
// measured/predicted), and a budgeted ticket whose predicted start already
// overruns its budget is refused kResourceExhausted with a computed
// retry_after hint instead of queueing doomed work. Stale/cancelled
// re-admissions back off with jittered exponential delays (RetryPolicy); a
// watchdog thread cancels fused calls that exceed watchdog_factor x their
// predicted runtime; N consecutive infrastructure failures open a circuit
// breaker that sheds bulk traffic until a cooldown passes. Health
// (kHealthy/kDegraded/kUnhealthy) is derived from the breaker, suspect
// workers and rolling-window SLO burn rates; degraded operation only
// changes *scheduling* (bulk caps and fusion width shrink) — any ticket
// that completes is still bitwise-identical to the cold kernel.
//
// Observability: per-lane ticket latency (queueing included) under
// metrics::EntryPoint::kServeInteractive/kServeBulk, fusion counters
// serve_enqueued / serve_fused_calls / serve_fused_queries /
// serve_cancelled / serve_expired, overload counters serve_shed_predictive
// / serve_doomed_evicted / serve_watchdog_fires / serve_breaker_open, the
// gsknn_serve_health gauge, and flightrec kServeSubmit/kServeFuse/
// kServeShed/kServeWatchdog/kServeBreaker events (docs/OBSERVABILITY.md,
// docs/SERVING.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "gsknn/core/knn.hpp"
#include "gsknn/core/packed_refs.hpp"

namespace gsknn::serving {

/// Priority lanes. Interactive drains strictly before bulk; each lane has
/// its own queue-depth cap and its own latency axis in gsknn::metrics.
enum class Lane : int { kInteractive = 0, kBulk = 1 };
inline constexpr int kNumLanes = 2;

/// Server health, derived by the monitor thread (docs/SERVING.md "Overload
/// & degradation"): kUnhealthy while the circuit breaker is open;
/// kDegraded while it is half-open, a worker is suspect (recent watchdog
/// fire) or the rolling-window SLO burn rate is high under live traffic;
/// kHealthy otherwise. Counted in metrics::serve_health() (worst live
/// server) via metrics::move_serve_health on every change.
enum class HealthState : int { kHealthy = 0, kDegraded = 1, kUnhealthy = 2 };

/// Stable lowercase name ("healthy", "degraded", "unhealthy").
const char* health_state_name(HealthState h);

/// Backoff schedule for stale/cancelled re-admissions: attempt i (1-based)
/// is delayed base * multiplier^(i-1), jittered by +-jitter, before the
/// ticket becomes eligible again; deadlines are still honored (a backoff
/// that lands past the ticket's own deadline fails it kDeadlineExceeded
/// immediately). After max_attempts deferrals the ticket fails with the
/// cause: kStale for epoch races, kResourceExhausted for watchdog/fault
/// cancellations.
struct RetryPolicy {
  int max_attempts = 8;
  std::chrono::nanoseconds base = std::chrono::microseconds(100);
  double multiplier = 2.0;
  double jitter = 0.1;  ///< fraction of the delay, uniform in [-j, +j]
};

struct ServerOptions {
  /// Dispatcher threads pulling fused batches off the admission queue.
  int workers = 1;
  /// Threads per fused kernel call (its 4th loop splits the fused rows).
  int kernel_threads = 1;
  /// Per-lane queued-ticket cap; submit fails kResourceExhausted beyond it
  /// (open-loop overload sheds at admission, not in the kernel).
  int max_queue_depth = 4096;
  /// Cap on tickets coalesced into one fused call.
  int max_fused_queries = 64;
  /// Norm layout class served (fixed per Server; one fusion key).
  Norm norm = Norm::kL2Sq;
  /// Pack-geometry override forwarded to every PackedRefs set.
  std::optional<BlockingParams> blocking;
  /// Per-refs-set resident panel budget (0 = unlimited).
  std::size_t budget_bytes = 0;

  // ---- overload protection (docs/SERVING.md "Overload & degradation") ----
  /// Refuse budgeted submits whose model-predicted start time already
  /// overruns their budget (kResourceExhausted + retry_after hint), and
  /// evict already-expired queued tickets at admission. Off = queue-cap-only
  /// admission (the baseline bench/micro_overload.cpp compares against).
  bool predictive_admission = true;
  /// Backoff schedule for stale/cancelled re-admissions.
  RetryPolicy retry;
  /// The watchdog cancels a fused call once it runs longer than
  /// watchdog_factor x its model-predicted runtime (and at least
  /// watchdog_floor — tiny calls never trip on scheduling noise).
  /// factor <= 0 disables firing (the monitor thread still runs).
  double watchdog_factor = 8.0;
  std::chrono::nanoseconds watchdog_floor = std::chrono::milliseconds(100);
  /// Circuit breaker: this many *consecutive* infrastructure failures
  /// (kInternal / kResourceExhausted / watchdog- or fault-cancelled fused
  /// calls) open it; open rejects bulk submits kResourceExhausted. It goes
  /// half-open once breaker_cooldown passes without a new failure, and
  /// closes on the next successful fused call (or after 2x cooldown idle).
  int breaker_threshold = 5;
  std::chrono::nanoseconds breaker_cooldown = std::chrono::milliseconds(500);
  /// Retained terminal tickets; beyond this the oldest terminal ticket is
  /// forgotten FIFO (its id then polls done/kBadIndex — the unknown-ticket
  /// contract). 0 = unbounded. Bounds steady-state RSS of long-lived
  /// servers whose callers poll() rather than wait-and-drop.
  std::size_t max_retained_tickets = 65536;
};

struct SubmitOptions {
  Lane lane = Lane::kInteractive;
  /// Latency budget; maps onto KnnConfig::deadline of the fused call. Empty
  /// = no deadline (the ticket never expires, only cancels).
  std::optional<std::chrono::nanoseconds> budget;
};

/// Opaque ticket handle; 0 is never a valid ticket.
using TicketId = std::uint64_t;

/// Outcome of submit_ex. On admission `ticket` is non-zero and `status` is
/// kOk. On refusal `ticket` is 0, `status` carries the reason, and for
/// overload refusals (kResourceExhausted from predictive admission or an
/// open breaker) `retry_after` is the computed hint: how much later a
/// retry's predicted start would fit the same budget (0 when no hint
/// applies — argument errors, plain queue-cap sheds).
struct SubmitResult {
  TicketId ticket = 0;
  Status status = Status::kOk;
  std::chrono::nanoseconds retry_after{0};
};

class Server {
 public:
  /// `X` must outlive the Server (same lifetime contract as PackedRefs).
  explicit Server(const PointTable& X, const ServerOptions& opt = {});
  /// Drains: in-flight fused calls finish, queued tickets fail kCancelled.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // ---- named reference sets ----------------------------------------------
  /// Build a PackedRefs set under `name` (kInvalidArgument if taken).
  Status create_refs(std::string_view name, std::span<const int> ids);
  /// Incremental updates; safe concurrently with in-flight queries (the
  /// cache's epoch handshake re-queues affected tickets).
  Status insert_refs(std::string_view name, std::span<const int> ids);
  Status erase_refs(std::string_view name, std::span<const int> ids);
  /// Unregister a set by name. Tickets resolve the set at submit time and
  /// share ownership, so both in-flight fused calls and already-queued
  /// tickets still complete against the dropped set; only new submissions
  /// see kInvalidArgument.
  Status drop_refs(std::string_view name);
  /// Current epoch of a set, ~0ull if unknown.
  std::uint64_t refs_epoch(std::string_view name) const;
  /// Current size of a set, -1 if unknown.
  int refs_size(std::string_view name) const;
  /// Pack/cache counters of a set (empty if unknown). `bytes_packed` is
  /// cumulative: once panels are resident it must stop moving — the warm
  /// fused path's zero-copy contract is asserted against exactly this.
  std::optional<PackedRefs::Stats> refs_stats(std::string_view name) const;

  // ---- tickets ------------------------------------------------------------
  /// Admit one query (row id of X) for its k nearest among `refs`. Returns
  /// 0 on rejection with the reason in *err when given: kInvalidArgument
  /// (unknown set), kBadIndex (query id), kBadConfig (k),
  /// kResourceExhausted (lane queue full).
  TicketId submit(std::string_view refs, int query, int k,
                  const SubmitOptions& opt = {}, Status* err = nullptr);
  /// submit with the full admission outcome: refusal reason plus the
  /// retry_after backpressure hint (see SubmitResult). `submit` is a thin
  /// wrapper that drops the hint.
  SubmitResult submit_ex(std::string_view refs, int query, int k,
                         const SubmitOptions& opt = {});
  /// True once the ticket reached a terminal state; *out gets the terminal
  /// status (kOk, kCancelled, kDeadlineExceeded, kStale, ...). Unknown
  /// tickets report done with kBadIndex.
  bool poll(TicketId t, Status* out = nullptr) const;
  /// Block until terminal; returns the terminal status.
  Status wait(TicketId t);
  /// Cancel a still-queued ticket (true). Running/terminal tickets are not
  /// interrupted (false) — their result stays valid.
  bool cancel(TicketId t);
  /// Copy a completed ticket's neighbors (ascending distance) into
  /// ids/dists (each of capacity >= k). Returns the count written, or -1 if
  /// the ticket is unknown / not terminal / did not complete with kOk.
  int result(TicketId t, std::span<int> ids, std::span<double> dists) const;

  // ---- introspection ------------------------------------------------------
  /// One atomic snapshot (taken under the server lock, so the identity
  /// consistent() checks holds exactly — no counter can move between
  /// fields of a single stats() call).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;      ///< terminal with kOk
    std::uint64_t cancelled = 0;
    std::uint64_t expired = 0;        ///< terminal with kDeadlineExceeded
    std::uint64_t failed = 0;         ///< terminal with any other non-kOk
    std::uint64_t fused_calls = 0;    ///< kernel dispatches
    std::uint64_t fused_queries = 0;  ///< tickets those dispatches carried
    std::uint64_t requeues = 0;       ///< stale/starved re-admissions
    // Overload protection (docs/SERVING.md "Overload & degradation").
    std::uint64_t shed_predictive = 0;  ///< submits refused by admission
    std::uint64_t doomed_evicted = 0;   ///< queued tickets evicted expired
    std::uint64_t watchdog_fires = 0;   ///< fused calls watchdog-cancelled
    std::uint64_t breaker_opens = 0;    ///< breaker -> open transitions
    std::uint64_t evicted_tickets = 0;  ///< terminal tickets forgotten FIFO
    std::uint64_t in_flight = 0;        ///< tickets currently running
    int queue_depth[kNumLanes] = {0, 0};

    /// Conservation identity: every admitted ticket is terminal, running or
    /// queued. Holds exactly for any single stats() snapshot.
    bool consistent() const {
      const std::uint64_t queued =
          static_cast<std::uint64_t>(queue_depth[0]) +
          static_cast<std::uint64_t>(queue_depth[1]);
      return submitted ==
             completed + cancelled + expired + failed + in_flight + queued;
    }
  };
  Stats stats() const;
  /// fused_queries / fused_calls (0 when no call ran) — the fusion ratio.
  double fusion_ratio() const;
  /// Current derived health (see HealthState). Also exported as the
  /// gsknn_serve_health metrics gauge and via gsknn_server_health().
  HealthState health() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gsknn::serving
