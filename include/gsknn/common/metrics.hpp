// gsknn::metrics — always-on aggregate metrics for the serving-runtime
// north star (ROADMAP item 1).
//
// The telemetry layer (gsknn/common/telemetry.hpp) answers "where did THIS
// call spend its time"; this layer answers "what has the process been doing
// across millions of calls": call rates per entry point, result-status
// rates (the PR-4 Status axis — deadline expiries and workspace exhaustion
// become visible as rates, not just as individual errors), latency and
// workload-shape distributions, workspace-governance events, and whether
// the paper's §2.6 performance model still predicts measured runtimes
// (Fig. 4 made continuous, see the drift histogram below).
//
// Design, mirroring telemetry::Recorder's aggregation model:
//   * a fixed static pool of cache-line-aligned shards indexed by the
//     thread-slot registry (gsknn/common/threads.hpp), so the hot path
//     never contends on a shared line;
//   * shard fields are relaxed std::atomic<> cells. A thread that owns its
//     shard updates them with plain load+add+store (no lock-prefixed RMW —
//     the atomic type only makes the concurrent snapshot reads defined);
//     threads without a slot share one overflow shard with fetch_add;
//   * snapshot() reduces the shards into a plain MetricsSnapshot struct;
//     reset() zeroes them. Both may race recording: an in-flight increment
//     can land before or after the cut, which is the usual contract for
//     scrape-style metrics.
//
// Histograms use a fixed log2 bucket layout (64 buckets, bucket i covers
// [2^i, 2^(i+1)) with 0 and 1 sharing bucket 0), so snapshots from any two
// builds merge bucket-by-bucket and the export schema never changes shape.
//
// Always-on by default: every public kernel/solver entry point records one
// (status, latency, shape) sample per call — measured overhead budget is
// <= 1% on the Table-5 shapes (bench/micro_metrics.cpp guards it; see
// EXPERIMENTS.md). GSKNN_METRICS=0 in the environment disarms recording at
// startup; set_enabled() flips it at runtime.
//
// Exports: MetricsSnapshot::to_json() (one stable JSON object),
// to_prometheus() (text exposition format, families prefixed gsknn_), and
// the gsknn_metrics_* C API (include/gsknn/capi.h). The CLI surfaces both
// via `--metrics[=path]` / `--metrics-prom[=path]`; tools/check_metrics.py
// validates both formats in `ctest -L observability`.
#pragma once

#include <cstdint>
#include <string>

#include "gsknn/common/status.hpp"

namespace gsknn::metrics {

/// Public entry points the aggregate layer distinguishes. Nested calls
/// count at every layer they pass through: a knn_batch call records one
/// kBatch sample plus one kKernelF64 sample per task it runs — the axes
/// read as "calls that entered this entry point", not a disjoint partition.
enum class EntryPoint : int {
  kKernelF64 = 0,  ///< knn_kernel / knn_kernel_status, double
  kKernelF32,      ///< knn_kernel / knn_kernel_status, float
  kParallelRefs,   ///< knn_kernel_parallel_refs[_status]
  kBatch,          ///< knn_batch[_status]
  kGemmBaseline,   ///< knn_gemm_baseline
  kSingleLoop,     ///< knn_single_loop_baseline
  kRkdForest,      ///< tree::all_nearest_neighbors
  kLsh,            ///< tree::lsh_all_nearest_neighbors
  // Serving runtime (gsknn/serving/server.hpp): one sample per ticket at
  // completion, latency = completion - submit (queueing included), under
  // the ticket's lane — the per-lane tail-latency axis.
  kServeInteractive,  ///< interactive-lane tickets
  kServeBulk,         ///< bulk-lane tickets
  kNumEntryPoints,
};

inline constexpr int kEntryPointCount =
    static_cast<int>(EntryPoint::kNumEntryPoints);

/// Stable lowercase identifier ("kernel_f64", "batch", ...) used in both
/// export formats.
const char* entry_point_name(EntryPoint ep);

/// Result-status axis: one slot per gsknn::Status value.
inline constexpr int kStatusCount = gsknn::kStatusCount;

/// gsknn::status_name() of a status value ("ok", "deadline_exceeded", ...);
/// "unknown" outside [0, kStatusCount).
const char* status_label(int status);

// ---- log2 histograms -------------------------------------------------------

inline constexpr int kHistBuckets = 64;

/// Bucket of value v: 0 and 1 land in bucket 0; 2^i lands exactly in bucket
/// i; 2^i - 1 in bucket i - 1. Bucket i >= 1 covers [2^i, 2^(i+1)).
int bucket_index(std::uint64_t v);

/// Exclusive upper boundary of bucket i (2^(i+1)); the Prometheus `le`
/// edge. Saturates at UINT64_MAX for the last bucket.
std::uint64_t bucket_limit(int i);

/// Model-drift histogram: signed log2 of measured/predicted runtime at 1/8
/// log2 resolution (one bucket per ~9% ratio step). A perfectly calibrated
/// model lands in the center bucket; buckets right of center mean the model
/// was optimistic (measured > predicted). Returns -1 for non-positive
/// inputs (nothing to record).
inline constexpr int kDriftCenter = kHistBuckets / 2;
inline constexpr int kDriftBucketsPerLog2 = 8;
int drift_bucket(double predicted_seconds, double measured_seconds);

// ---- rolling windows -------------------------------------------------------

/// Time-bucketed ring over the last kWindowBuckets × kWindowBucketSeconds
/// of traffic: per-second status counts, one aggregate latency histogram
/// per second (all entry points combined — the windowed axes answer "is
/// the process healthy NOW", the cumulative axes keep the per-entry
/// detail), and model drift. Each shard carries its own ring; a slot is
/// lazily re-zeroed by its owner when the wall second it held falls out of
/// the window (slot = second % kWindowBuckets, the slot's absolute second
/// is stored alongside so scrapes can tell live data from stale).
inline constexpr int kWindowBuckets = 60;
inline constexpr int kWindowBucketSeconds = 1;

/// SLO targets for the windowed burn rates. Defaults match slo_from_env()
/// with no environment overrides.
struct Slo {
  double latency_target_s = 0.100;   ///< GSKNN_SLO_LATENCY_MS / 1000
  double latency_quantile = 0.99;    ///< GSKNN_SLO_LATENCY_TARGET
  double availability_target = 0.999;  ///< GSKNN_SLO_AVAILABILITY
};

/// SLO targets from GSKNN_SLO_LATENCY_MS / GSKNN_SLO_LATENCY_TARGET /
/// GSKNN_SLO_AVAILABILITY (latched on first call).
const Slo& slo_from_env();

// ---- scalar event counters -------------------------------------------------

/// Process-wide monotonic event counters. The first two make workspace
/// governance (docs/ROBUSTNESS.md) visible as rates; the last two make
/// silently degraded *observability* itself observable: trace spans lost to
/// ring overflow and PMU reads that needed multiplex extrapolation.
enum class Counter : int {
  kWorkspaceRetiledCalls = 0,  ///< calls whose plan took >= 1 retile step
  kWorkspaceRetileSteps,       ///< degradation-ladder steps, summed
  kTraceSpansDropped,          ///< trace spans lost (ring overflow or no
                               ///< thread slot), summed across all sinks
  kPmuMultiplexedReads,        ///< PMU snapshots scaled by enabled/running
  // Packed-panel reference cache (gsknn/core/packed_refs.hpp). Hit/miss
  // make the warm-traffic claim measurable ("0 packed bytes moved" means
  // hits without pack_bytes growth); evictions expose budget pressure.
  kPackHits,                   ///< warm block acquisitions (panel resident)
  kPackMisses,                 ///< cold block acquisitions (block was packed)
  kPackEvictions,              ///< panel blocks evicted under the budget
  kCacheBytes,                 ///< bytes packed into caches, cumulative
  // Serving runtime (gsknn/serving/server.hpp). fused_queries/fused_calls
  // is the batch-fusion ratio — the headline number of the admission
  // coalescer (>1 means queries are riding shared kernel calls).
  kServeEnqueued,              ///< tickets admitted to a lane queue
  kServeFusedCalls,            ///< fused kernel dispatches
  kServeFusedQueries,          ///< tickets carried by those dispatches
  kServeCancelled,             ///< tickets cancelled before dispatch
  kServeExpired,               ///< tickets failed on their own deadline
  // Overload protection (docs/SERVING.md "Overload & degradation"). The
  // first two make refused/avoided work visible as rates; the last two are
  // the incident counters a watchdog/breaker alert keys on.
  kServeShedPredictive,        ///< submits refused: predicted start > budget
  kServeDoomedEvicted,         ///< queued tickets evicted already-expired
  kServeWatchdogFires,         ///< fused calls cancelled by the watchdog
  kServeBreakerOpen,           ///< circuit-breaker closed -> open transitions
  kNumCounters,
};

inline constexpr int kCounterCount = static_cast<int>(Counter::kNumCounters);

const char* counter_name(Counter c);

// ---- serving-health gauge --------------------------------------------------

/// Process-wide serving health gauge, exported as `gsknn_serve_health` in
/// the Prometheus exposition and as `serve_health` in the JSON snapshot:
/// 0 = healthy, 1 = degraded, 2 = unhealthy. Every live serving runtime
/// (gsknn::serving::Server) is counted under its current HealthState: it
/// calls move_serve_health(-1, 0) when constructed, (old, new) on each
/// transition and (state, -1) when destroyed. serve_health() is the worst
/// state any live server is in, so a healthy server never masks an
/// unhealthy one; 0 with no live server (an idle process is healthy).
void move_serve_health(int from, int to);
int serve_health();

// ---- snapshot --------------------------------------------------------------

/// Reduced, plain-struct view of the registry. Every array is fixed-size,
/// so snapshots are mergeable (merge()) and the export schema is stable
/// regardless of what actually ran.
struct MetricsSnapshot {
  std::uint64_t calls[kEntryPointCount][kStatusCount] = {};
  std::uint64_t latency[kEntryPointCount][kHistBuckets] = {};  ///< ns buckets
  std::uint64_t latency_sum_ns[kEntryPointCount] = {};
  /// Workload shape distributions; rows are the m/n/d/k axes in that order.
  std::uint64_t shape[4][kHistBuckets] = {};
  std::uint64_t shape_sum[4] = {};
  /// Model drift (signed log2 ratio, see drift_bucket); rows: f64, f32.
  std::uint64_t drift[2][kHistBuckets] = {};
  /// Sum of milli-log2 ratios, for the Prometheus histogram _sum series.
  std::int64_t drift_sum_millilog2[2] = {};
  std::uint64_t counters[kCounterCount] = {};
  /// Serving health gauge at snapshot time (see move_serve_health above).
  int serve_health = 0;
  bool enabled = true;

  /// Rolling-window series (see kWindowBuckets above). window_epoch[i] is
  /// the absolute wall second slot i holds (0 = never written); a slot is
  /// live iff its epoch is within kWindowBuckets seconds of window_now_sec.
  std::uint64_t window_now_sec = 0;
  std::uint64_t window_epoch[kWindowBuckets] = {};
  std::uint64_t window_status[kWindowBuckets][kStatusCount] = {};
  std::uint64_t window_latency[kWindowBuckets][kHistBuckets] = {};
  std::uint64_t window_latency_sum_ns[kWindowBuckets] = {};
  std::uint64_t window_drift_count[kWindowBuckets] = {};
  std::int64_t window_drift_sum_millilog2[kWindowBuckets] = {};
  /// SLO targets the burn rates in the exports are computed against
  /// (snapshot() fills this from slo_from_env()).
  Slo slo;

  std::uint64_t calls_total(EntryPoint ep) const;
  std::uint64_t status_total(int status) const;
  std::uint64_t drift_count(int precision) const;  ///< 0 = f64, 1 = f32
  /// Upper edge (ns) of the latency bucket containing quantile q in [0, 1]
  /// — a <= 2x overestimate by construction; 0 when no calls recorded.
  std::uint64_t latency_quantile_ns(EntryPoint ep, double q) const;

  /// Whether window slot i holds live (in-window) data.
  bool window_slot_live(int i) const;
  /// Calls / non-OK calls across the live window slots.
  std::uint64_t window_calls() const;
  std::uint64_t window_errors() const;
  /// window_errors() / window_calls(); 0 when the window is empty.
  double window_error_rate() const;
  /// Quantile over the merged live-slot latency histogram (same <= 2x
  /// overestimate contract as latency_quantile_ns); 0 when empty.
  std::uint64_t window_latency_quantile_ns(double q) const;
  /// Mean log2(measured/predicted) across live-slot drift samples; 0 when
  /// no samples.
  double window_drift_mean_log2() const;
  /// Fraction of windowed calls slower than slo.latency_target_s, divided
  /// by the error budget (1 - slo.latency_quantile). 1.0 = burning exactly
  /// the budget; conservative: the bucket straddling the target counts as
  /// over-target.
  double window_latency_burn_rate() const;
  /// window_error_rate() / (1 - slo.availability_target).
  double window_availability_burn_rate() const;

  /// Bucket-wise accumulate (fixed layouts make this exact). Window slots
  /// align by absolute epoch: equal epochs add, the newer epoch wins
  /// otherwise.
  void merge(const MetricsSnapshot& other);

  /// One JSON object; schema documented in docs/OBSERVABILITY.md and
  /// validated by tools/check_metrics.py.
  std::string to_json() const;
  /// Prometheus text exposition (families gsknn_calls_total,
  /// gsknn_latency_seconds, gsknn_shape, gsknn_model_drift_log2,
  /// gsknn_events_total, gsknn_metrics_enabled).
  std::string to_prometheus() const;
};

// ---- registry --------------------------------------------------------------

/// Whether recording is armed. Defaults to true; GSKNN_METRICS=0 in the
/// environment disarms it before the first record.
bool enabled();
void set_enabled(bool on);

/// Record one completed entry-point call: status cell, latency histogram
/// and the four shape histograms. `status` is the gsknn::Status value;
/// out-of-range statuses are dropped. No-op when disabled.
void record_call(EntryPoint ep, int status, std::uint64_t latency_ns, int m,
                 int n, int d, int k);

/// record_call with the caller's end-of-call timestamp (steady-clock ns,
/// i.e. a now_ns() value) — saves the entry brackets a second clock read
/// and gives the window tests a simulated clock.
void record_call_at(std::uint64_t now, EntryPoint ep, int status,
                    std::uint64_t latency_ns, int m, int n, int d, int k);

/// Record one model-drift sample (predicted vs measured seconds); samples
/// with a non-positive side are dropped. No-op when disabled.
void record_drift(bool f32, double predicted_seconds,
                  double measured_seconds);

/// record_drift against a caller-supplied timestamp (window placement).
void record_drift_at(std::uint64_t now, bool f32, double predicted_seconds,
                     double measured_seconds);

/// Bump a scalar event counter. No-op when disabled.
void add_counter(Counter c, std::uint64_t v = 1);

/// Reduce all shards into one snapshot.
MetricsSnapshot snapshot();

/// snapshot() with a caller-supplied "now" (steady-clock ns) for the
/// window-liveness cut — the simulated-clock test hook.
MetricsSnapshot snapshot_at(std::uint64_t now);

/// Zero all shards (the enabled flag is left as-is). May race recording;
/// in-flight samples land on whichever side of the cut they reach first.
void reset();

/// Steady-clock nanoseconds, for bracketing entry points.
std::uint64_t now_ns();

/// Library-internal: printf-append into `out` (at most 511 bytes per call),
/// the one text builder of the JSON exports (metrics, trace, diag bundle).
void append_fmt(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Write `text` to `path` (created or truncated): the one file writer of
/// those exports. False (errno set) unless fully written and closed.
bool write_file(const char* path, const std::string& text);

}  // namespace gsknn::metrics
