// C API implementation (see include/gsknn/capi.h). Exceptions are caught at
// the boundary and surfaced through gsknn_last_error().
#include "gsknn/capi.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <string>

#include "gsknn/common/arch.hpp"
#include "gsknn/common/cancel.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/common/pmu.hpp"
#include "gsknn/common/trace.hpp"
#include "gsknn/core/diag.hpp"
#include "gsknn/core/entry_metrics.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/core/packed_refs.hpp"
#include "gsknn/data/io.hpp"

#include "capi_handles.hpp"

namespace {

thread_local std::string tl_error = "ok";

void set_error(const char* what) { tl_error = what; }

using gsknn::capi::status_code;

/// Hand a search's Status back as its C code, keeping the text the entry
/// bracket recorded for a failure in gsknn_last_error().
int search_result(gsknn::Status s) {
  if (s != gsknn::Status::kOk) set_error(gsknn::core::entry_error());
  return status_code(s);
}

/// Translate the C norm/variant/lp/threads quadruple into a KnnConfig.
/// Returns GSKNN_OK or the status code to hand back (error already set).
int parse_search_config(int norm, int variant, double lp, int threads,
                        gsknn::KnnConfig& cfg) {
  switch (norm) {
    case GSKNN_NORM_L2SQ:
      cfg.norm = gsknn::Norm::kL2Sq;
      break;
    case GSKNN_NORM_L1:
      cfg.norm = gsknn::Norm::kL1;
      break;
    case GSKNN_NORM_LINF:
      cfg.norm = gsknn::Norm::kLInf;
      break;
    case GSKNN_NORM_LP:
      cfg.norm = gsknn::Norm::kLp;
      break;
    case GSKNN_NORM_COSINE:
      cfg.norm = gsknn::Norm::kCosine;
      break;
    default:
      set_error("gsknn_search: unknown norm");
      return GSKNN_ERR_BAD_CONFIG;
  }
  switch (variant) {
    case GSKNN_VARIANT_AUTO:
      cfg.variant = gsknn::Variant::kAuto;
      break;
    case GSKNN_VARIANT_1:
      cfg.variant = gsknn::Variant::kVar1;
      break;
    case GSKNN_VARIANT_5:
      cfg.variant = gsknn::Variant::kVar5;
      break;
    default:
      set_error("gsknn_search: unknown variant");
      return GSKNN_ERR_BAD_CONFIG;
  }
  cfg.p = lp;
  cfg.threads = threads;
  return GSKNN_OK;
}

}  // namespace

// The C codes index the snapshot's axes directly: each must equal its C++
// enumerator, and the counts the axis sizes.
#define GSKNN_C_MIRRORS(code, value) \
  static_assert(GSKNN_METRIC_##code == static_cast<int>(gsknn::metrics::value))
GSKNN_C_MIRRORS(EP_KERNEL_F64, EntryPoint::kKernelF64);
GSKNN_C_MIRRORS(EP_KERNEL_F32, EntryPoint::kKernelF32);
GSKNN_C_MIRRORS(EP_PARALLEL_REFS, EntryPoint::kParallelRefs);
GSKNN_C_MIRRORS(EP_BATCH, EntryPoint::kBatch);
GSKNN_C_MIRRORS(EP_GEMM_BASELINE, EntryPoint::kGemmBaseline);
GSKNN_C_MIRRORS(EP_SINGLE_LOOP, EntryPoint::kSingleLoop);
GSKNN_C_MIRRORS(EP_RKD_FOREST, EntryPoint::kRkdForest);
GSKNN_C_MIRRORS(EP_LSH, EntryPoint::kLsh);
GSKNN_C_MIRRORS(EP_SERVE_INTERACTIVE, EntryPoint::kServeInteractive);
GSKNN_C_MIRRORS(EP_SERVE_BULK, EntryPoint::kServeBulk);
static_assert(GSKNN_METRIC_EP_COUNT == gsknn::metrics::kEntryPointCount);
GSKNN_C_MIRRORS(CTR_WORKSPACE_RETILED_CALLS, Counter::kWorkspaceRetiledCalls);
GSKNN_C_MIRRORS(CTR_WORKSPACE_RETILE_STEPS, Counter::kWorkspaceRetileSteps);
GSKNN_C_MIRRORS(CTR_TRACE_SPANS_DROPPED, Counter::kTraceSpansDropped);
GSKNN_C_MIRRORS(CTR_PMU_MULTIPLEXED_READS, Counter::kPmuMultiplexedReads);
GSKNN_C_MIRRORS(CTR_PACK_HITS, Counter::kPackHits);
GSKNN_C_MIRRORS(CTR_PACK_MISSES, Counter::kPackMisses);
GSKNN_C_MIRRORS(CTR_PACK_EVICTIONS, Counter::kPackEvictions);
GSKNN_C_MIRRORS(CTR_CACHE_BYTES, Counter::kCacheBytes);
GSKNN_C_MIRRORS(CTR_SERVE_ENQUEUED, Counter::kServeEnqueued);
GSKNN_C_MIRRORS(CTR_SERVE_FUSED_CALLS, Counter::kServeFusedCalls);
GSKNN_C_MIRRORS(CTR_SERVE_FUSED_QUERIES, Counter::kServeFusedQueries);
GSKNN_C_MIRRORS(CTR_SERVE_CANCELLED, Counter::kServeCancelled);
GSKNN_C_MIRRORS(CTR_SERVE_EXPIRED, Counter::kServeExpired);
GSKNN_C_MIRRORS(CTR_SERVE_SHED_PREDICTIVE, Counter::kServeShedPredictive);
GSKNN_C_MIRRORS(CTR_SERVE_DOOMED_EVICTED, Counter::kServeDoomedEvicted);
GSKNN_C_MIRRORS(CTR_SERVE_WATCHDOG_FIRES, Counter::kServeWatchdogFires);
GSKNN_C_MIRRORS(CTR_SERVE_BREAKER_OPEN, Counter::kServeBreakerOpen);
static_assert(GSKNN_METRIC_CTR_COUNT == gsknn::metrics::kCounterCount);
#undef GSKNN_C_MIRRORS

// gsknn_table / gsknn_result live in capi_handles.hpp (shared with the
// serving C API translation unit).

struct gsknn_profile {
  gsknn::telemetry::KernelProfile profile;
  std::string json;  // owns the buffer gsknn_profile_json() returns
};

struct gsknn_trace {
  gsknn::telemetry::TraceSink sink;
  std::string json;  // owns the buffer gsknn_trace_json() returns

  explicit gsknn_trace(std::size_t ring_kb) : sink(ring_kb) {}
};

struct gsknn_cancel_token {
  gsknn::CancelToken token;
};

struct gsknn_packed_refs {
  gsknn::PackedRefs refs;
};

struct gsknn_metrics {
  gsknn::metrics::MetricsSnapshot snap;
  std::string text;  // owns the json/prometheus buffers handed back
};

extern "C" {

gsknn_table* gsknn_table_create(int d, int n, const double* coords) {
  try {
    if (d <= 0 || n < 0 || (n > 0 && coords == nullptr)) {
      set_error("gsknn_table_create: bad arguments");
      return nullptr;
    }
    auto* t = new gsknn_table;
    t->table.resize(d, n);
    std::memcpy(t->table.data(), coords,
                sizeof(double) * static_cast<std::size_t>(d) * n);
    t->table.compute_norms();
    return t;
  } catch (const std::exception& e) {
    set_error(e.what());
    return nullptr;
  }
}

gsknn_table* gsknn_table_load(const char* path) {
  try {
    auto t = std::make_unique<gsknn_table>();
    try {
      t->table = gsknn::load_table(path);
    } catch (const std::exception&) {
      t->table = gsknn::load_csv(path);
    }
    return t.release();
  } catch (const std::exception& e) {
    set_error(e.what());
    return nullptr;
  }
}

int gsknn_table_dim(const gsknn_table* t) { return t ? t->table.dim() : -1; }
int gsknn_table_size(const gsknn_table* t) { return t ? t->table.size() : -1; }
void gsknn_table_destroy(gsknn_table* t) { delete t; }

gsknn_result* gsknn_result_create(int m, int k) {
  try {
    if (m < 0 || k <= 0) {
      set_error("gsknn_result_create: bad arguments");
      return nullptr;
    }
    auto* r = new gsknn_result;
    r->table.resize(m, k);
    return r;
  } catch (const std::exception& e) {
    set_error(e.what());
    return nullptr;
  }
}

void gsknn_result_destroy(gsknn_result* r) { delete r; }

int gsknn_search_traced(const gsknn_table* table, const int* qidx, int mq,
                        const int* ridx, int nq, int norm, int variant,
                        double lp, int threads, gsknn_result* result,
                        gsknn_profile* profile, gsknn_trace* trace) {
  if (table == nullptr || result == nullptr || mq < 0 || nq < 0 ||
      (mq > 0 && qidx == nullptr) || (nq > 0 && ridx == nullptr)) {
    set_error("gsknn_search: null argument or negative count");
    return GSKNN_ERR_INVALID_ARGUMENT;
  }
  gsknn::KnnConfig cfg;
  const int rc = parse_search_config(norm, variant, lp, threads, cfg);
  if (rc != GSKNN_OK) return rc;
  cfg.profile = profile != nullptr ? &profile->profile : nullptr;
  cfg.trace = trace != nullptr ? &trace->sink : nullptr;
  return search_result(gsknn::knn_kernel_status(
      table->table, {qidx, static_cast<std::size_t>(mq)},
      {ridx, static_cast<std::size_t>(nq)}, result->table, cfg));
}

const char* gsknn_status_name(int status) {
  // Codes are the negated Status values; anything else is not a code.
  if (status > 0 || status <= -gsknn::kStatusCount) return "unknown";
  return gsknn::status_name(static_cast<gsknn::Status>(-status));
}

int gsknn_search_profiled(const gsknn_table* table, const int* qidx, int mq,
                          const int* ridx, int nq, int norm, int variant,
                          double lp, int threads, gsknn_result* result,
                          gsknn_profile* profile) {
  return gsknn_search_traced(table, qidx, mq, ridx, nq, norm, variant, lp,
                             threads, result, profile, nullptr);
}

int gsknn_search(const gsknn_table* table, const int* qidx, int mq,
                 const int* ridx, int nq, int norm, int variant, double lp,
                 int threads, gsknn_result* result) {
  return gsknn_search_traced(table, qidx, mq, ridx, nq, norm, variant, lp,
                             threads, result, nullptr, nullptr);
}

gsknn_profile* gsknn_profile_create(void) {
  try {
    return new gsknn_profile;
  } catch (const std::exception& e) {
    set_error(e.what());
    return nullptr;
  }
}

void gsknn_profile_destroy(gsknn_profile* p) { delete p; }

void gsknn_profile_reset(gsknn_profile* p) {
  if (p != nullptr) p->profile.reset();
}

double gsknn_profile_wall_seconds(const gsknn_profile* p) {
  return p != nullptr ? p->profile.wall_seconds : -1.0;
}

double gsknn_profile_phase_seconds(const gsknn_profile* p, int phase) {
  if (p == nullptr || phase < 0 || phase >= gsknn::telemetry::kPhaseCount) {
    return -1.0;
  }
  return p->profile.phase_seconds[phase];
}

const char* gsknn_profile_phase_name(int phase) {
  if (phase < 0 || phase >= gsknn::telemetry::kPhaseCount) return nullptr;
  return gsknn::telemetry::phase_name(
      static_cast<gsknn::telemetry::Phase>(phase));
}

uint64_t gsknn_profile_counter(const gsknn_profile* p, int counter) {
  if (p == nullptr || counter < 0 ||
      counter >= gsknn::telemetry::kCounterCount) {
    return 0;
  }
  return p->profile.counters[counter];
}

int gsknn_profile_counters_enabled(const gsknn_profile* p) {
  return (p != nullptr && p->profile.counters_enabled) ? 1 : 0;
}

double gsknn_profile_gflops(const gsknn_profile* p) {
  return p != nullptr ? p->profile.gflops() : -1.0;
}

const char* gsknn_profile_json(gsknn_profile* p) {
  if (p == nullptr) return "{}";
  try {
    p->json = p->profile.to_json();
  } catch (const std::exception& e) {
    set_error(e.what());
    return "{}";
  }
  return p->json.c_str();
}

int gsknn_result_row(const gsknn_result* r, int row, int cap, int* ids,
                     double* dists) {
  if (r == nullptr || row < 0 || row >= r->table.rows() || cap < 0) {
    set_error("gsknn_result_row: bad arguments");
    return -1;
  }
  const auto sorted = r->table.sorted_row(row);
  const int count = static_cast<int>(
      std::min<std::size_t>(sorted.size(), static_cast<std::size_t>(cap)));
  for (int i = 0; i < count; ++i) {
    if (ids != nullptr) ids[i] = sorted[static_cast<std::size_t>(i)].second;
    if (dists != nullptr) dists[i] = sorted[static_cast<std::size_t>(i)].first;
  }
  return count;
}

int gsknn_result_row_complete(const gsknn_result* r, int row) {
  if (r == nullptr || row < 0 || row >= r->table.rows()) {
    set_error("gsknn_result_row_complete: bad arguments");
    return -1;
  }
  return r->table.row_complete(row) ? 1 : 0;
}

gsknn_cancel_token* gsknn_cancel_token_create(void) {
  try {
    return new gsknn_cancel_token;
  } catch (const std::exception& e) {
    set_error(e.what());
    return nullptr;
  }
}

void gsknn_cancel_token_destroy(gsknn_cancel_token* c) { delete c; }

void gsknn_cancel_token_cancel(gsknn_cancel_token* c) {
  if (c != nullptr) c->token.cancel();
}

int gsknn_cancel_token_cancelled(const gsknn_cancel_token* c) {
  return (c != nullptr && c->token.cancelled()) ? 1 : 0;
}

void gsknn_cancel_token_reset(gsknn_cancel_token* c) {
  if (c != nullptr) c->token.reset();
}

int gsknn_search_deadline_ms(const gsknn_table* table, const int* qidx,
                             int mq, const int* ridx, int nq, int norm,
                             int variant, double lp, int threads,
                             int64_t deadline_ms, gsknn_cancel_token* token,
                             size_t max_workspace_bytes,
                             gsknn_result* result) {
  if (table == nullptr || result == nullptr || mq < 0 || nq < 0 ||
      (mq > 0 && qidx == nullptr) || (nq > 0 && ridx == nullptr)) {
    set_error("gsknn_search_deadline_ms: null argument or negative count");
    return GSKNN_ERR_INVALID_ARGUMENT;
  }
  gsknn::KnnConfig cfg;
  const int rc = parse_search_config(norm, variant, lp, threads, cfg);
  if (rc != GSKNN_OK) return rc;
  if (deadline_ms > 0) cfg.deadline = gsknn::deadline_after_ms(deadline_ms);
  if (token != nullptr) cfg.cancel = &token->token;
  cfg.max_workspace_bytes = max_workspace_bytes;
  return search_result(gsknn::knn_kernel_status(
      table->table, {qidx, static_cast<std::size_t>(mq)},
      {ridx, static_cast<std::size_t>(nq)}, result->table, cfg));
}

gsknn_packed_refs* gsknn_packed_refs_create(const gsknn_table* table,
                                            const int* ridx, int nq, int norm,
                                            size_t budget_bytes, int eager) {
  if (table == nullptr || nq < 0 || (nq > 0 && ridx == nullptr)) {
    set_error("gsknn_packed_refs_create: null argument or negative count");
    return nullptr;
  }
  try {
    gsknn::KnnConfig probe;  // reuse the norm switch; variant is irrelevant
    if (parse_search_config(norm, GSKNN_VARIANT_AUTO, 2.0, 0, probe) !=
        GSKNN_OK) {
      set_error("gsknn_packed_refs_create: unknown norm");
      return nullptr;
    }
    auto p = std::make_unique<gsknn_packed_refs>();
    gsknn::PackedRefs::Options opt;
    opt.norm = probe.norm;
    opt.budget_bytes = budget_bytes;
    opt.eager = eager != 0;
    const gsknn::Status s = p->refs.build(
        table->table, {ridx, static_cast<std::size_t>(nq)}, opt);
    if (s != gsknn::Status::kOk) {
      set_error(gsknn::status_name(s));
      return nullptr;
    }
    return p.release();
  } catch (const std::exception& e) {
    set_error(e.what());
    return nullptr;
  }
}

void gsknn_packed_refs_destroy(gsknn_packed_refs* p) { delete p; }

uint64_t gsknn_packed_refs_epoch(const gsknn_packed_refs* p) {
  return p != nullptr ? p->refs.epoch() : 0;
}

int gsknn_packed_refs_size(const gsknn_packed_refs* p) {
  return p != nullptr ? p->refs.size() : -1;
}

int gsknn_packed_refs_insert(gsknn_packed_refs* p, const int* ids, int count) {
  if (p == nullptr || count < 0 || (count > 0 && ids == nullptr)) {
    set_error("gsknn_packed_refs_insert: null argument or negative count");
    return GSKNN_ERR_INVALID_ARGUMENT;
  }
  try {
    const gsknn::Status s =
        p->refs.insert({ids, static_cast<std::size_t>(count)});
    if (s != gsknn::Status::kOk) {
      set_error(gsknn::status_name(s));
      return status_code(s);
    }
    return GSKNN_OK;
  } catch (const std::exception& e) {
    set_error(e.what());
    return GSKNN_ERR_INTERNAL;
  }
}

int gsknn_packed_refs_erase(gsknn_packed_refs* p, const int* ids, int count) {
  if (p == nullptr || count < 0 || (count > 0 && ids == nullptr)) {
    set_error("gsknn_packed_refs_erase: null argument or negative count");
    return GSKNN_ERR_INVALID_ARGUMENT;
  }
  try {
    const gsknn::Status s =
        p->refs.erase({ids, static_cast<std::size_t>(count)});
    if (s != gsknn::Status::kOk) {
      set_error(gsknn::status_name(s));
      return status_code(s);
    }
    return GSKNN_OK;
  } catch (const std::exception& e) {
    set_error(e.what());
    return GSKNN_ERR_INTERNAL;
  }
}

uint64_t gsknn_packed_refs_stat(const gsknn_packed_refs* p, int stat) {
  if (p == nullptr) return 0;
  const gsknn::PackedRefs::Stats st = p->refs.stats();
  switch (stat) {
    case GSKNN_PACK_STAT_HITS:
      return st.hits;
    case GSKNN_PACK_STAT_MISSES:
      return st.misses;
    case GSKNN_PACK_STAT_EVICTIONS:
      return st.evictions;
    case GSKNN_PACK_STAT_BYTES_PACKED:
      return st.bytes_packed;
    case GSKNN_PACK_STAT_RESIDENT_BYTES:
      return st.resident_bytes;
    case GSKNN_PACK_STAT_RESIDENT_BLOCKS:
      return static_cast<uint64_t>(st.resident_blocks);
  }
  return 0;
}

int gsknn_packed_search(gsknn_packed_refs* refs, const int* qidx, int mq,
                        int norm, int variant, double lp, int threads,
                        uint64_t expected_epoch, gsknn_result* result) {
  if (refs == nullptr || result == nullptr || mq < 0 ||
      (mq > 0 && qidx == nullptr)) {
    set_error("gsknn_packed_search: null argument or negative count");
    return GSKNN_ERR_INVALID_ARGUMENT;
  }
  gsknn::KnnConfig cfg;
  const int rc = parse_search_config(norm, variant, lp, threads, cfg);
  if (rc != GSKNN_OK) return rc;
  return search_result(gsknn::knn_kernel_status(
      refs->refs, {qidx, static_cast<std::size_t>(mq)}, result->table, cfg,
      {}, expected_epoch));
}

int gsknn_pmu_available(void) {
  return gsknn::telemetry::pmu_available() ? 1 : 0;
}

uint64_t gsknn_profile_pmu(const gsknn_profile* p, int phase, int event) {
  if (p == nullptr || phase < 0 || phase >= gsknn::telemetry::kPhaseCount ||
      event < 0 || event >= gsknn::telemetry::kPmuEventCount) {
    return 0;
  }
  return p->profile.phase_pmu[phase][event];
}

int gsknn_profile_pmu_enabled(const gsknn_profile* p) {
  return (p != nullptr && p->profile.pmu_enabled) ? 1 : 0;
}

gsknn_trace* gsknn_trace_create(size_t ring_kb) {
  try {
    return new gsknn_trace(ring_kb);
  } catch (const std::exception& e) {
    set_error(e.what());
    return nullptr;
  }
}

void gsknn_trace_destroy(gsknn_trace* t) { delete t; }

void gsknn_trace_reset(gsknn_trace* t) {
  if (t != nullptr) t->sink.reset();
}

uint64_t gsknn_trace_span_count(const gsknn_trace* t) {
  return t != nullptr ? t->sink.span_count() : 0;
}

uint64_t gsknn_trace_dropped_spans(const gsknn_trace* t) {
  return t != nullptr ? t->sink.dropped_spans() : 0;
}

int gsknn_trace_thread_tracks(const gsknn_trace* t) {
  return t != nullptr ? t->sink.thread_tracks() : -1;
}

int gsknn_trace_write_json(const gsknn_trace* t, const char* path) {
  if (t == nullptr || path == nullptr) {
    set_error("gsknn_trace_write_json: null argument");
    return -1;
  }
  if (!t->sink.write_json(path)) {
    set_error("gsknn_trace_write_json: could not write file");
    return -2;
  }
  return 0;
}

const char* gsknn_trace_json(gsknn_trace* t) {
  if (t == nullptr) return "{}";
  try {
    t->json = t->sink.to_json();
  } catch (const std::exception& e) {
    set_error(e.what());
    return "{}";
  }
  return t->json.c_str();
}

int gsknn_metrics_enabled(void) {
  return gsknn::metrics::enabled() ? 1 : 0;
}

void gsknn_metrics_enable(int on) { gsknn::metrics::set_enabled(on != 0); }

void gsknn_metrics_reset(void) { gsknn::metrics::reset(); }

gsknn_metrics* gsknn_metrics_snapshot(void) {
  try {
    auto* m = new gsknn_metrics;
    m->snap = gsknn::metrics::snapshot();
    return m;
  } catch (const std::exception& e) {
    set_error(e.what());
    return nullptr;
  }
}

void gsknn_metrics_destroy(gsknn_metrics* m) { delete m; }

uint64_t gsknn_metrics_calls(const gsknn_metrics* m, int entry_point,
                             int status) {
  // C status codes are GSKNN_OK / negative GSKNN_ERR_*; the snapshot's
  // status axis is the non-negative gsknn::Status value.
  const int si = status <= 0 ? -status : -1;
  if (m == nullptr || entry_point < 0 ||
      entry_point >= gsknn::metrics::kEntryPointCount || si < 0 ||
      si >= gsknn::metrics::kStatusCount) {
    return 0;
  }
  return m->snap.calls[entry_point][si];
}

uint64_t gsknn_metrics_calls_total(const gsknn_metrics* m, int entry_point) {
  if (m == nullptr || entry_point < 0 ||
      entry_point >= gsknn::metrics::kEntryPointCount) {
    return 0;
  }
  return m->snap.calls_total(
      static_cast<gsknn::metrics::EntryPoint>(entry_point));
}

uint64_t gsknn_metrics_latency_quantile_ns(const gsknn_metrics* m,
                                           int entry_point, double q) {
  if (m == nullptr || entry_point < 0 ||
      entry_point >= gsknn::metrics::kEntryPointCount) {
    return 0;
  }
  return m->snap.latency_quantile_ns(
      static_cast<gsknn::metrics::EntryPoint>(entry_point), q);
}

uint64_t gsknn_metrics_counter(const gsknn_metrics* m, int counter) {
  if (m == nullptr || counter < 0 ||
      counter >= gsknn::metrics::kCounterCount) {
    return 0;
  }
  return m->snap.counters[counter];
}

uint64_t gsknn_metrics_drift_count(const gsknn_metrics* m, int f32) {
  if (m == nullptr || f32 < 0 || f32 > 1) return 0;
  return m->snap.drift_count(f32);
}

const char* gsknn_metrics_json(gsknn_metrics* m) {
  if (m == nullptr) return "{}";
  try {
    m->text = m->snap.to_json();
  } catch (const std::exception& e) {
    set_error(e.what());
    return "{}";
  }
  return m->text.c_str();
}

const char* gsknn_metrics_prometheus(gsknn_metrics* m) {
  if (m == nullptr) return "";
  try {
    m->text = m->snap.to_prometheus();
  } catch (const std::exception& e) {
    set_error(e.what());
    return "";
  }
  return m->text.c_str();
}

uint64_t gsknn_metrics_window_calls(const gsknn_metrics* m) {
  return m != nullptr ? m->snap.window_calls() : 0;
}

uint64_t gsknn_metrics_window_errors(const gsknn_metrics* m) {
  return m != nullptr ? m->snap.window_errors() : 0;
}

double gsknn_metrics_window_error_rate(const gsknn_metrics* m) {
  return m != nullptr ? m->snap.window_error_rate() : 0.0;
}

uint64_t gsknn_metrics_window_latency_quantile_ns(const gsknn_metrics* m,
                                                  double q) {
  return m != nullptr ? m->snap.window_latency_quantile_ns(q) : 0;
}

double gsknn_metrics_window_burn_rate(const gsknn_metrics* m, int which) {
  if (m == nullptr || which < 0 || which > 1) {
    set_error("gsknn_metrics_window_burn_rate: bad argument");
    return -1.0;
  }
  return which == 0 ? m->snap.window_latency_burn_rate()
                    : m->snap.window_availability_burn_rate();
}

int gsknn_diag_dump(const char* path) {
  if (path == nullptr) {
    set_error("gsknn_diag_dump: null path");
    return GSKNN_ERR_INVALID_ARGUMENT;
  }
  try {
    if (!gsknn::diag::write_bundle(path, "api")) {
      set_error("gsknn_diag_dump: could not write bundle");
      return GSKNN_ERR_INTERNAL;
    }
  } catch (const std::exception& e) {
    set_error(e.what());
    return GSKNN_ERR_INTERNAL;
  }
  return GSKNN_OK;
}

uint64_t gsknn_pmu_multiplexed_reads(void) {
  return gsknn::telemetry::pmu_multiplexed_reads();
}

const char* gsknn_last_error(void) { return tl_error.c_str(); }

const char* gsknn_arch_summary(void) {
  static const std::string summary = gsknn::arch_summary();
  return summary.c_str();
}

}  // extern "C"
