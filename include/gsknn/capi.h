/* C API for GSKNN — a stable, minimal FFI surface for bindings (Python
 * ctypes/cffi, Julia, Rust, ...). Wraps the three things a consumer needs:
 * hold a coordinate table, run the exact kernel, read back neighbor lists.
 *
 * Conventions:
 *   - points are column-major double arrays (point i = d consecutive values);
 *   - all functions return GSKNN_OK (0) on success and a negative
 *     gsknn_status code on error — never crash or assert on malformed input;
 *   - gsknn_last_error() returns a thread-local message for the last failure;
 *   - handles must be released with the matching destroy function.
 *
 * Error codes, degenerate-input semantics (NaN/Inf coordinates, k > n,
 * duplicate ids, empty index lists, d == 0) and the deterministic
 * tie-breaking rule are specified in docs/CONTRACT.md. Resource governance
 * (workspace caps, deadlines, cancellation, partial-result semantics) is
 * specified in docs/ROBUSTNESS.md.
 */
#ifndef GSKNN_CAPI_H
#define GSKNN_CAPI_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Status codes returned by every int-returning entry point (mirror
 * gsknn::Status; see docs/CONTRACT.md for the full table). */
enum {
  GSKNN_OK = 0,
  GSKNN_ERR_INVALID_ARGUMENT = -1, /* malformed sizes / null pointers */
  GSKNN_ERR_BAD_INDEX = -2,        /* qidx/ridx/result_rows out of range */
  GSKNN_ERR_BAD_CONFIG = -3,       /* unknown norm/variant, bad lp/blocking */
  GSKNN_ERR_NONFINITE = -4,        /* opt-in finite-coordinate check failed */
  GSKNN_ERR_UNSUPPORTED = -5,      /* valid config, no implementation */
  GSKNN_ERR_INTERNAL = -6,         /* unexpected failure */
  GSKNN_ERR_RESOURCE_EXHAUSTED = -7, /* workspace cap / allocation failure */
  GSKNN_ERR_DEADLINE_EXCEEDED = -8,  /* deadline expired mid-search */
  GSKNN_ERR_CANCELLED = -9,          /* cancel token fired mid-search */
  GSKNN_ERR_STALE = -10              /* packed-refs epoch mismatch (see
                                        gsknn_packed_refs_* below) */
};

/* Short stable name for a status code ("ok", "bad_index", ...); "unknown"
 * for values outside the enum. Static storage. */
const char* gsknn_status_name(int status);

typedef struct gsknn_table gsknn_table;     /* PointTable handle */
typedef struct gsknn_result gsknn_result;   /* NeighborTable handle */
typedef struct gsknn_profile gsknn_profile; /* telemetry::KernelProfile handle */
typedef struct gsknn_trace gsknn_trace;     /* telemetry::TraceSink handle */
typedef struct gsknn_cancel_token gsknn_cancel_token; /* CancelToken handle */

/* Norms (mirror gsknn::Norm). */
enum {
  GSKNN_NORM_L2SQ = 0,
  GSKNN_NORM_L1 = 1,
  GSKNN_NORM_LINF = 2,
  GSKNN_NORM_LP = 3,
  GSKNN_NORM_COSINE = 4
};

/* Variants (mirror gsknn::Variant; 0 = automatic: 1 below k = 256, else 5).
 * The value is the loop after which selection runs: 1 selects inside the
 * micro-kernel, 5 after each finished m x nc panel. Any other value fails
 * with GSKNN_ERR_BAD_CONFIG: the paper's dominated placements 2 and 3, and
 * 6 (select after the full m x n matrix), whose selection 5 performs
 * bitwise-identically in a buffer bounded by nc. */
enum {
  GSKNN_VARIANT_AUTO = 0,
  GSKNN_VARIANT_1 = 1,
  GSKNN_VARIANT_5 = 5
};

/* ---- tables ---------------------------------------------------------- */

/* Create a table from n points of dimension d (column-major coords copied). */
gsknn_table* gsknn_table_create(int d, int n, const double* coords);

/* Load from a native .gsknn file or CSV (auto-detected). NULL on error. */
gsknn_table* gsknn_table_load(const char* path);

int gsknn_table_dim(const gsknn_table* t);
int gsknn_table_size(const gsknn_table* t);
void gsknn_table_destroy(gsknn_table* t);

/* ---- search ---------------------------------------------------------- */

/* Allocate an m-query × k result. */
gsknn_result* gsknn_result_create(int m, int k);
void gsknn_result_destroy(gsknn_result* r);

/* Exact kNN kernel: update `result` rows 0..mq with the nq reference
 * candidates. qidx/ridx are indices into `table`. norm/variant use the enums
 * above; lp is the exponent for GSKNN_NORM_LP; threads 0 = default.
 * Returns GSKNN_OK or a negative gsknn_status code; on error the result
 * table is unchanged and gsknn_last_error() describes the failure. */
int gsknn_search(const gsknn_table* table, const int* qidx, int mq,
                 const int* ridx, int nq, int norm, int variant, double lp,
                 int threads, gsknn_result* result);

/* Read row `row` (ascending distance). Writes up to `cap` entries, returns
 * the count actually written (may be < k when fewer candidates were seen). */
int gsknn_result_row(const gsknn_result* r, int row, int cap, int* ids,
                     double* dists);

/* After a search returned GSKNN_ERR_DEADLINE_EXCEEDED / GSKNN_ERR_CANCELLED
 * (or -7 mid-flight): 1 when row `row` saw every reference candidate, 0 when
 * the stop cut it short (the row still holds a valid partial heap), -1 on bad
 * arguments. Always 1 after GSKNN_OK. See docs/ROBUSTNESS.md. */
int gsknn_result_row_complete(const gsknn_result* r, int row);

/* ---- governance: deadlines, cancellation, workspace caps -------------- */

/* Shareable cancellation token (wraps one atomic flag). Thread-safe: any
 * thread may cancel while searches on other threads poll it at block
 * boundaries. Reusable after gsknn_cancel_token_reset(). */
gsknn_cancel_token* gsknn_cancel_token_create(void);
void gsknn_cancel_token_destroy(gsknn_cancel_token* c);
void gsknn_cancel_token_cancel(gsknn_cancel_token* c);
int gsknn_cancel_token_cancelled(const gsknn_cancel_token* c); /* 0 or 1 */
void gsknn_cancel_token_reset(gsknn_cancel_token* c);

/* gsknn_search with resource governance:
 *   - deadline_ms > 0 arms a deadline that many milliseconds from the call
 *     (monotonic clock); expiry returns GSKNN_ERR_DEADLINE_EXCEEDED with the
 *     finished rows intact and unfinished rows flagged (see
 *     gsknn_result_row_complete). deadline_ms <= 0 means no deadline.
 *   - token (may be NULL) is polled at block boundaries; cancellation
 *     returns GSKNN_ERR_CANCELLED with the same partial-result semantics.
 *   - max_workspace_bytes > 0 caps the kernel's packed-panel workspace; the
 *     kernel retiles its blocking downward to fit (bitwise-identical
 *     results), or returns GSKNN_ERR_RESOURCE_EXHAUSTED with the result
 *     untouched when even the minimum tiling does not fit. 0 defers to the
 *     GSKNN_MAX_WORKSPACE environment variable (unset = uncapped).
 * Full semantics in docs/ROBUSTNESS.md. */
int gsknn_search_deadline_ms(const gsknn_table* table, const int* qidx,
                             int mq, const int* ridx, int nq, int norm,
                             int variant, double lp, int threads,
                             int64_t deadline_ms, gsknn_cancel_token* token,
                             size_t max_workspace_bytes,
                             gsknn_result* result);

/* ---- packed reference cache ------------------------------------------ */

/* A reusable packed reference-panel cache (mirror gsknn::PackedRefs; see
 * docs/ARCHITECTURE.md "plan / pack / compute"). Pack a reference set once,
 * query it many times: warm searches move 0 packed reference bytes and
 * return results bitwise-identical to gsknn_search over the same ids.
 * The cache serves the query norms that share its panel layout (l2sq/cosine
 * caches also serve l1/lp; an linf cache serves only linf) — a mismatch
 * returns GSKNN_ERR_UNSUPPORTED. */
typedef struct gsknn_packed_refs gsknn_packed_refs;

/* "Don't check the epoch" sentinel for gsknn_packed_search. */
#define GSKNN_EPOCH_ANY ((uint64_t)-1)

/* Per-cache statistics (mirror gsknn::PackedRefsT::Stats). */
enum {
  GSKNN_PACK_STAT_HITS = 0,            /* block acquisitions served resident */
  GSKNN_PACK_STAT_MISSES = 1,          /* block acquisitions that packed */
  GSKNN_PACK_STAT_EVICTIONS = 2,       /* blocks dropped under the budget */
  GSKNN_PACK_STAT_BYTES_PACKED = 3,    /* cumulative bytes packed */
  GSKNN_PACK_STAT_RESIDENT_BYTES = 4,  /* panel bytes currently cached */
  GSKNN_PACK_STAT_RESIDENT_BLOCKS = 5,
  GSKNN_PACK_STAT_COUNT = 6
};

/* Pack the nq references `ridx` (indices into `table`, copied) for queries
 * under `norm`. `table` is referenced, not copied — it must outlive the
 * handle. budget_bytes caps resident panel bytes (0 = unlimited; LRU
 * eviction above it; a budget below one block fails). eager != 0 packs every
 * block now instead of on first touch. NULL on error (gsknn_last_error()). */
gsknn_packed_refs* gsknn_packed_refs_create(const gsknn_table* table,
                                            const int* ridx, int nq, int norm,
                                            size_t budget_bytes, int eager);
void gsknn_packed_refs_destroy(gsknn_packed_refs* p);

/* Generation counter: 0 after create, +1 per insert/erase. 0 on NULL. */
uint64_t gsknn_packed_refs_epoch(const gsknn_packed_refs* p);
/* Current reference count; -1 on NULL. */
int gsknn_packed_refs_size(const gsknn_packed_refs* p);

/* Incremental updates (block-granularity repacking: only the panel blocks
 * whose id range changed are re-packed on next touch). Both bump the epoch,
 * so in-flight gsknn_packed_search calls pinned to the old epoch return
 * GSKNN_ERR_STALE. Updates MAY run concurrently with searches on the same
 * handle: a racing search fails with a clean GSKNN_ERR_STALE (unfinished
 * rows flagged incomplete), never mixed-generation results. insert appends
 * ids; erase removes the first occurrence of each id (GSKNN_ERR_BAD_INDEX
 * when one is absent; nothing is removed). */
int gsknn_packed_refs_insert(gsknn_packed_refs* p, const int* ids, int count);
int gsknn_packed_refs_erase(gsknn_packed_refs* p, const int* ids, int count);

/* One GSKNN_PACK_STAT_* value; 0 on NULL or out-of-range arguments. */
uint64_t gsknn_packed_refs_stat(const gsknn_packed_refs* p, int stat);

/* Warm-path search: identical semantics (and bitwise-identical results) to
 * gsknn_search over the cache's current ids, except reference panels come
 * from the cache. Pass an epoch observed via gsknn_packed_refs_epoch() to
 * reject the call with GSKNN_ERR_STALE (result untouched) when an update
 * slipped in between — or GSKNN_EPOCH_ANY to skip the check. */
int gsknn_packed_search(gsknn_packed_refs* refs, const int* qidx, int mq,
                        int norm, int variant, double lp, int threads,
                        uint64_t expected_epoch, gsknn_result* result);

/* ---- telemetry ------------------------------------------------------- */

/* Phases of the kernel time breakdown (mirror gsknn::telemetry::Phase). */
enum {
  GSKNN_PHASE_PACK_Q = 0,
  GSKNN_PHASE_PACK_R = 1,
  GSKNN_PHASE_MICRO = 2,
  GSKNN_PHASE_SELECT = 3,
  GSKNN_PHASE_MERGE = 4,
  GSKNN_PHASE_COLLECT = 5,
  GSKNN_PHASE_SQ2D = 6,
  GSKNN_PHASE_COUNT = 7
};

/* Work counters (mirror gsknn::telemetry::Counter). Exact tallies from the
 * fused kernel whenever a profile is attached; a profile fed only by the
 * GEMM baseline reads zero (see gsknn_profile_counters_enabled()). */
enum {
  GSKNN_COUNTER_CANDIDATES = 0,
  GSKNN_COUNTER_HEAP_PUSHES = 1,
  GSKNN_COUNTER_ROOT_REJECTS = 2,
  GSKNN_COUNTER_TILES = 3,
  GSKNN_COUNTER_BYTES_PACKED_Q = 4,
  GSKNN_COUNTER_BYTES_PACKED_R = 5,
  GSKNN_COUNTER_COUNT = 6
};

/* Create an empty profile sink. Successive profiled searches accumulate
 * into it; gsknn_profile_reset() clears it for reuse. */
gsknn_profile* gsknn_profile_create(void);
void gsknn_profile_destroy(gsknn_profile* p);
void gsknn_profile_reset(gsknn_profile* p);

/* gsknn_search with a per-phase/per-counter profile attached. `profile` may
 * be NULL, which makes this identical to gsknn_search. A profile must not be
 * shared across concurrently-running searches. */
int gsknn_search_profiled(const gsknn_table* table, const int* qidx, int mq,
                          const int* ridx, int nq, int norm, int variant,
                          double lp, int threads, gsknn_result* result,
                          gsknn_profile* profile);

/* Accessors; negative / 0 on a NULL or out-of-range argument. */
double gsknn_profile_wall_seconds(const gsknn_profile* p);
double gsknn_profile_phase_seconds(const gsknn_profile* p, int phase);
const char* gsknn_profile_phase_name(int phase); /* "pack_q", ... or NULL */
uint64_t gsknn_profile_counter(const gsknn_profile* p, int counter);
int gsknn_profile_counters_enabled(const gsknn_profile* p); /* 0 or 1 */
double gsknn_profile_gflops(const gsknn_profile* p);

/* One-line JSON rendering of the profile. The returned buffer is owned by
 * the profile handle and valid until the next call on the same handle or its
 * destruction. */
const char* gsknn_profile_json(gsknn_profile* p);

/* ---- hardware counters ----------------------------------------------- */

/* Per-phase hardware events (mirror gsknn::telemetry::PmuEvent). Collected
 * via perf_event_open when available; see gsknn_pmu_available(). */
enum {
  GSKNN_PMU_CYCLES = 0,
  GSKNN_PMU_INSTRUCTIONS = 1,
  GSKNN_PMU_L1D_MISSES = 2,
  GSKNN_PMU_LLC_MISSES = 3,
  GSKNN_PMU_STALL_CYCLES = 4,
  GSKNN_PMU_COUNT = 5
};

/* 1 when perf_event_open works on this host/process (paranoid level,
 * seccomp and GSKNN_PMU=0 all make it 0). With 0, profiled searches still
 * carry timers and counters — only the pmu section reads as disabled. */
int gsknn_pmu_available(void);

/* Aggregated event count for one phase; 0 on bad arguments or when the
 * profile ran without PMU access (check gsknn_profile_pmu_enabled). */
uint64_t gsknn_profile_pmu(const gsknn_profile* p, int phase, int event);
int gsknn_profile_pmu_enabled(const gsknn_profile* p); /* 0 or 1 */

/* ---- trace timelines -------------------------------------------------- */

/* Create a trace sink: per-thread span rings serialized as Chrome/Perfetto
 * trace_event JSON. ring_kb is the per-thread ring size (0 = the
 * GSKNN_TRACE_RING_KB environment variable, default 1024); rings overflow by
 * dropping the oldest spans. Unlike a profile, one sink MAY be shared by
 * concurrently-running searches. */
gsknn_trace* gsknn_trace_create(size_t ring_kb);
void gsknn_trace_destroy(gsknn_trace* t);
void gsknn_trace_reset(gsknn_trace* t);

/* gsknn_search with optional profile AND trace sinks (either may be NULL). */
int gsknn_search_traced(const gsknn_table* table, const int* qidx, int mq,
                        const int* ridx, int nq, int norm, int variant,
                        double lp, int threads, gsknn_result* result,
                        gsknn_profile* profile, gsknn_trace* trace);

/* Spans currently retained / evicted by ring overflow / thread tracks. */
uint64_t gsknn_trace_span_count(const gsknn_trace* t);
uint64_t gsknn_trace_dropped_spans(const gsknn_trace* t);
int gsknn_trace_thread_tracks(const gsknn_trace* t);

/* Serialize to a file (0 on success) or to a string owned by the handle
 * (valid until the next call on the same handle or its destruction). */
int gsknn_trace_write_json(const gsknn_trace* t, const char* path);
const char* gsknn_trace_json(gsknn_trace* t);

/* ---- aggregate metrics ------------------------------------------------ */

/* Always-on process-wide aggregates (mirror gsknn::metrics): per-entry-point
 * call/status rates, log2 latency and workload-shape histograms, workspace
 * governance events and the model-drift histogram. Recording is on by
 * default with <= 1% overhead; GSKNN_METRICS=0 in the environment disarms
 * it at startup. Schema and triage guidance: docs/OBSERVABILITY.md. */

/* Entry-point axis (mirror gsknn::metrics::EntryPoint). */
enum {
  GSKNN_METRIC_EP_KERNEL_F64 = 0,
  GSKNN_METRIC_EP_KERNEL_F32 = 1,
  GSKNN_METRIC_EP_PARALLEL_REFS = 2,
  GSKNN_METRIC_EP_BATCH = 3,
  GSKNN_METRIC_EP_GEMM_BASELINE = 4,
  GSKNN_METRIC_EP_SINGLE_LOOP = 5,
  GSKNN_METRIC_EP_RKD_FOREST = 6,
  GSKNN_METRIC_EP_LSH = 7,
  GSKNN_METRIC_EP_SERVE_INTERACTIVE = 8, /* serving tickets, per lane */
  GSKNN_METRIC_EP_SERVE_BULK = 9,
  GSKNN_METRIC_EP_COUNT = 10
};

/* Event-counter axis (mirror gsknn::metrics::Counter). The codes from
 * GSKNN_METRIC_CTR_PACK_HITS on moved down by one when the variant-demotion
 * counter (formerly 4) was removed: a client built against an older header
 * reads the wrong cell for each of them and must be rebuilt. */
enum {
  GSKNN_METRIC_CTR_WORKSPACE_RETILED_CALLS = 0,
  GSKNN_METRIC_CTR_WORKSPACE_RETILE_STEPS = 1,
  GSKNN_METRIC_CTR_TRACE_SPANS_DROPPED = 2,
  GSKNN_METRIC_CTR_PMU_MULTIPLEXED_READS = 3,
  GSKNN_METRIC_CTR_PACK_HITS = 4,       /* warm packed-refs block reuses */
  GSKNN_METRIC_CTR_PACK_MISSES = 5,     /* packed-refs blocks packed cold */
  GSKNN_METRIC_CTR_PACK_EVICTIONS = 6,  /* blocks evicted under the budget */
  GSKNN_METRIC_CTR_CACHE_BYTES = 7,     /* bytes packed into caches, cumul. */
  GSKNN_METRIC_CTR_SERVE_ENQUEUED = 8,  /* tickets admitted to a lane queue */
  GSKNN_METRIC_CTR_SERVE_FUSED_CALLS = 9,     /* fused kernel dispatches */
  GSKNN_METRIC_CTR_SERVE_FUSED_QUERIES = 10,  /* tickets those carried */
  GSKNN_METRIC_CTR_SERVE_CANCELLED = 11,  /* cancelled before dispatch */
  GSKNN_METRIC_CTR_SERVE_EXPIRED = 12,    /* failed on their own deadline */
  GSKNN_METRIC_CTR_SERVE_SHED_PREDICTIVE = 13,  /* submits refused */
  GSKNN_METRIC_CTR_SERVE_DOOMED_EVICTED = 14,   /* evicted already-expired */
  GSKNN_METRIC_CTR_SERVE_WATCHDOG_FIRES = 15,   /* watchdog cancellations */
  GSKNN_METRIC_CTR_SERVE_BREAKER_OPEN = 16,     /* breaker opened */
  GSKNN_METRIC_CTR_COUNT = 17
};

typedef struct gsknn_metrics gsknn_metrics; /* MetricsSnapshot handle */

/* 1 while the registry is recording; gsknn_metrics_enable() flips it at
 * runtime (process-global, like the registry itself). */
int gsknn_metrics_enabled(void);
void gsknn_metrics_enable(int on);

/* Zero the process-global registry. May race in-flight searches; samples
 * land on whichever side of the cut they reach first (scrape semantics). */
void gsknn_metrics_reset(void);

/* Reduce the registry into an immutable snapshot handle (NULL on
 * allocation failure). */
gsknn_metrics* gsknn_metrics_snapshot(void);
void gsknn_metrics_destroy(gsknn_metrics* m);

/* Calls that entered `entry_point` and finished with `status` (a GSKNN_OK /
 * GSKNN_ERR_* code). 0 on NULL or out-of-range arguments. */
uint64_t gsknn_metrics_calls(const gsknn_metrics* m, int entry_point,
                             int status);
/* Total calls into `entry_point` across all statuses. */
uint64_t gsknn_metrics_calls_total(const gsknn_metrics* m, int entry_point);

/* Upper edge in nanoseconds of the latency bucket containing quantile q in
 * [0, 1] — a <= 2x overestimate by construction; 0 when nothing recorded. */
uint64_t gsknn_metrics_latency_quantile_ns(const gsknn_metrics* m,
                                           int entry_point, double q);

/* Value of one GSKNN_METRIC_CTR_* event counter. */
uint64_t gsknn_metrics_counter(const gsknn_metrics* m, int counter);

/* Model-drift samples recorded for the f64 (f32 = 0) or f32 (f32 = 1)
 * kernel path. */
uint64_t gsknn_metrics_drift_count(const gsknn_metrics* m, int f32);

/* Renderings of the snapshot: one stable JSON object, and the Prometheus
 * text exposition format. Buffers are owned by the handle and valid until
 * the next call on the same handle or its destruction. Never NULL: a NULL
 * handle yields an empty document ("{}" / ""). */
const char* gsknn_metrics_json(gsknn_metrics* m);
const char* gsknn_metrics_prometheus(gsknn_metrics* m);

/* ---- rolling windows (docs/OBSERVABILITY.md "Flight recorder & SLO
 * windows") ------------------------------------------------------------ */

/* The snapshot also carries a 60 x 1 s rolling window over status counts,
 * latency and model drift (all entry points combined). These accessors
 * read the windowed health signals; the same numbers appear as the
 * "window" object in gsknn_metrics_json() and the gsknn_window_* gauge
 * families in gsknn_metrics_prometheus(). */

/* Calls / non-OK calls inside the rolling window. */
uint64_t gsknn_metrics_window_calls(const gsknn_metrics* m);
uint64_t gsknn_metrics_window_errors(const gsknn_metrics* m);

/* Non-OK fraction of windowed calls; 0 when the window is empty. */
double gsknn_metrics_window_error_rate(const gsknn_metrics* m);

/* Windowed latency quantile (same <= 2x bucket-edge contract as the
 * cumulative quantile accessor). */
uint64_t gsknn_metrics_window_latency_quantile_ns(const gsknn_metrics* m,
                                                  double q);

/* SLO burn rates over the window: 1.0 means the error budget is being
 * spent exactly at the sustainable rate. `which` selects the SLO:
 * 0 = latency (GSKNN_SLO_LATENCY_MS at quantile GSKNN_SLO_LATENCY_TARGET),
 * 1 = availability (GSKNN_SLO_AVAILABILITY). Negative on bad arguments. */
double gsknn_metrics_window_burn_rate(const gsknn_metrics* m, int which);

/* Write a one-shot diagnostics bundle — build/arch/CPU info, env knobs,
 * metrics snapshot incl. the window series, a flight-recorder drain, and
 * the section-2.6 model table — to `path` as one JSON object (the schema
 * tools/check_diag.py validates; same bundle `gsknn_cli doctor` emits).
 * Returns GSKNN_OK or a GSKNN_ERR_* code. */
int gsknn_diag_dump(const char* path);

/* Process-wide count of PMU snapshot reads whose counts were extrapolated
 * by kernel multiplex scaling — non-zero means PMU columns are estimates. */
uint64_t gsknn_pmu_multiplexed_reads(void);

/* ---- serving runtime (gsknn/serving/server.hpp; docs/SERVING.md) ----- */

typedef struct gsknn_server gsknn_server; /* serving::Server handle */

/* Priority lanes (mirror gsknn::serving::Lane). Interactive drains
 * strictly before bulk. */
enum { GSKNN_LANE_INTERACTIVE = 0, GSKNN_LANE_BULK = 1 };

/* Create a serving runtime over `table` (which must outlive the server).
 * `norm` fixes the layout class every reference set is packed for (one of
 * the fusion keys); `workers` is the dispatcher-thread count (< 1 clamps
 * to 1). NULL on bad arguments. */
gsknn_server* gsknn_server_create(const gsknn_table* table, int norm,
                                  int workers);

/* Drain and destroy: in-flight fused calls finish, still-queued tickets
 * fail GSKNN_ERR_CANCELLED. */
void gsknn_server_destroy(gsknn_server* s);

/* Named reference sets (packed-panel caches under the hood). Return
 * GSKNN_OK or a GSKNN_ERR_* code. insert/erase are safe concurrently with
 * in-flight queries: the epoch handshake re-admits affected tickets, it
 * never mixes reference generations. */
int gsknn_server_create_refs(gsknn_server* s, const char* name,
                             const int* ids, int count);
int gsknn_server_insert_refs(gsknn_server* s, const char* name,
                             const int* ids, int count);
int gsknn_server_erase_refs(gsknn_server* s, const char* name,
                            const int* ids, int count);
int gsknn_server_drop_refs(gsknn_server* s, const char* name);

/* Admit one query (row id of the server's table) for its k nearest among
 * the set `refs`. Returns a positive ticket id, or a negative GSKNN_ERR_*
 * code (unknown set, bad query id / k / lane, or lane queue full —
 * GSKNN_ERR_RESOURCE_EXHAUSTED — under open-loop overload). budget_ms > 0
 * maps onto the fused call's deadline; <= 0 means no deadline. Every
 * completed ticket is bitwise-identical to a cold synchronous gsknn_search
 * over the same query and the reference generation it ran against. */
long long gsknn_server_submit(gsknn_server* s, const char* refs, int query,
                              int k, int lane, double budget_ms);

/* gsknn_server_submit with the overload-protection backpressure hint
 * (docs/SERVING.md "Overload & degradation"). Identical semantics and
 * return, except that when the submit is refused GSKNN_ERR_RESOURCE_-
 * EXHAUSTED by predictive admission or an open circuit breaker,
 * *retry_after_ms (when non-NULL) receives the computed hint: retrying
 * that many milliseconds later would — at equal backlog — fit the same
 * budget. 0 when no hint applies (admitted, argument errors, plain
 * queue-cap sheds). */
long long gsknn_server_submit_ex(gsknn_server* s, const char* refs,
                                 int query, int k, int lane,
                                 double budget_ms, double* retry_after_ms);

/* 1 once the ticket is terminal, 0 while pending, GSKNN_ERR_* on bad
 * arguments (unknown tickets are terminal with GSKNN_ERR_BAD_INDEX). */
int gsknn_server_poll(gsknn_server* s, long long ticket);

/* Block until terminal; returns the ticket's terminal status (GSKNN_OK,
 * GSKNN_ERR_CANCELLED, GSKNN_ERR_DEADLINE_EXCEEDED, ...). */
int gsknn_server_wait(gsknn_server* s, long long ticket);

/* 1 = cancelled while still queued; 0 = too late (running or terminal —
 * the result, if any, stays valid); GSKNN_ERR_* on bad arguments. */
int gsknn_server_cancel(gsknn_server* s, long long ticket);

/* Copy a GSKNN_OK ticket's neighbors (ascending distance) into ids/dists
 * (cap entries each). Returns the count written, or a GSKNN_ERR_* code
 * when the ticket is unknown, pending, or did not complete. */
int gsknn_server_result(gsknn_server* s, long long ticket, int* ids,
                        double* dists, int cap);

/* Serving health states (mirror gsknn::serving::HealthState; also exported
 * process-wide as the gsknn_serve_health metrics gauge). */
enum {
  GSKNN_HEALTH_HEALTHY = 0,
  GSKNN_HEALTH_DEGRADED = 1,
  GSKNN_HEALTH_UNHEALTHY = 2
};

/* Current derived health of the server: GSKNN_HEALTH_UNHEALTHY while the
 * circuit breaker is open, GSKNN_HEALTH_DEGRADED while it is half-open, a
 * worker is suspect after a watchdog fire, or the rolling-window SLO burn
 * rate is high under live traffic; GSKNN_HEALTH_HEALTHY otherwise
 * (docs/SERVING.md "Overload & degradation"). GSKNN_ERR_* on bad
 * arguments. */
int gsknn_server_health(const gsknn_server* s);

/* ---- misc ------------------------------------------------------------ */

/* Thread-local message describing the last error (never NULL). */
const char* gsknn_last_error(void);

/* Library/arch description string (static storage). */
const char* gsknn_arch_summary(void);

#ifdef __cplusplus
}
#endif

#endif /* GSKNN_CAPI_H */
