// Diagnostics bundles (see include/gsknn/core/diag.hpp).
#include "gsknn/core/diag.hpp"

#include <cstdlib>
#include <string>
#include <vector>

#include "gsknn/common/arch.hpp"
#include "gsknn/common/flightrec.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/model/perf_model.hpp"

#ifndef GSKNN_GIT_DESCRIBE
#define GSKNN_GIT_DESCRIBE "unknown"
#endif

namespace gsknn::diag {

namespace {

using metrics::append_fmt;

void append_escaped(std::string& out, const char* s) {
  out += '"';
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          append_fmt(out, "\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

const char* simd_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kAvx512: return "avx512";
  }
  return "?";
}

// Every environment knob the library reads; a bundle records each as its
// value string or null so "what was this process actually configured to
// do" never needs a shell transcript.
const char* const kEnvKnobs[] = {
    "GSKNN_METRICS",          "GSKNN_FLIGHTREC",
    "GSKNN_FLIGHTREC_DUMP",   "GSKNN_FLIGHTREC_TRIGGER",
    "GSKNN_SLO_LATENCY_MS",   "GSKNN_SLO_LATENCY_TARGET",
    "GSKNN_SLO_AVAILABILITY", "GSKNN_MAX_WORKSPACE",
    "GSKNN_FAULT",            "GSKNN_PMU",
    "GSKNN_TRACE_RING_KB",    "GSKNN_MAX_SIMD",
    "GSKNN_BENCH_JSON",       "GSKNN_BENCH_QUICK",
};

void append_build(std::string& out) {
  out += "\"build\":{\"git\":";
  append_escaped(out, GSKNN_GIT_DESCRIBE);
  out += ",\"compiler\":";
#ifdef __VERSION__
  append_escaped(out, __VERSION__);
#else
  out += "null";
#endif
  append_fmt(out, ",\"cxx_standard\":%ld}", static_cast<long>(__cplusplus));
}

void append_arch(std::string& out) {
  const CpuFeatures& f = cpu_features();
  const CacheInfo& c = cache_info();
  const SimdLevel level = f.best_level();
  const BlockingParams bp = default_blocking(level);
  out += "\"arch\":{\"summary\":";
  append_escaped(out, arch_summary().c_str());
  append_fmt(out,
             ",\"simd_level\":\"%s\",\"features\":{\"sse2\":%s,\"avx\":%s,"
             "\"avx2\":%s,\"fma\":%s,\"avx512f\":%s}",
             simd_name(level), f.sse2 ? "true" : "false",
             f.avx ? "true" : "false", f.avx2 ? "true" : "false",
             f.fma ? "true" : "false", f.avx512f ? "true" : "false");
  append_fmt(out,
             ",\"caches\":{\"l1d\":%zu,\"l2\":%zu,\"l3\":%zu,\"line\":%zu}",
             c.l1d, c.l2, c.l3, c.line);
  append_fmt(out,
             ",\"blocking\":{\"mr\":%d,\"nr\":%d,\"dc\":%d,\"mc\":%d,"
             "\"nc\":%d}}",
             bp.mr, bp.nr, bp.dc, bp.mc, bp.nc);
}

void append_env(std::string& out) {
  out += "\"env\":{";
  bool first = true;
  for (const char* knob : kEnvKnobs) {
    append_fmt(out, "%s\"%s\":", first ? "" : ",", knob);
    const char* v = std::getenv(knob);
    if (v == nullptr) {
      out += "null";
    } else {
      append_escaped(out, v);
    }
    first = false;
  }
  out += '}';
}

void append_flightrec(std::string& out) {
  const std::vector<flightrec::Event> events = flightrec::drain();
  append_fmt(out, "\"flightrec\":{\"dropped\":%llu,\"events\":[",
             static_cast<unsigned long long>(flightrec::dropped()));
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ',';
    flightrec::append_event_json(out, events[i]);
  }
  out += "]}";
}

/// The §2.6 model table over a (d, k) grid at the paper's serving shape
/// (m = n = 8192): the model's predicted per-method times — the calibration
/// reference the drift histograms measure against — and the variant kAuto
/// actually runs there (resolve_variant).
void append_model(std::string& out) {
  const model::MachineParams& mp = model::machine();
  const BlockingParams bp = default_blocking(cpu_features().best_level());
  append_fmt(out,
             "\"model\":{\"machine\":{\"peak_flops\":%.9g,\"tau_b\":%.9g,"
             "\"tau_l\":%.9g,\"eps\":%.9g},\"table\":[",
             mp.peak_flops, mp.tau_b, mp.tau_l, mp.eps);
  const int dims[] = {16, 64, 256, 1024};
  const int ks[] = {16, 128, 512, 2048};
  bool first = true;
  for (const int d : dims) {
    for (const int k : ks) {
      const model::ProblemShape s{8192, 8192, d, k};
      const double var1 =
          model::predicted_time(model::Method::kVar1, s, mp, bp);
      const double var6 =
          model::predicted_time(model::Method::kVar6, s, mp, bp);
      const double gemm =
          model::predicted_time(model::Method::kGemmBaseline, s, mp, bp);
      const Variant chosen = resolve_variant(8192, 8192, d, k, KnnConfig{});
      append_fmt(out,
                 "%s{\"m\":8192,\"n\":8192,\"d\":%d,\"k\":%d,"
                 "\"var1_ms\":%.6g,\"var6_ms\":%.6g,\"gemm_ms\":%.6g,"
                 "\"var1_gflops\":%.6g,\"chosen\":\"%s\"}",
                 first ? "" : ",", d, k, var1 * 1e3, var6 * 1e3, gemm * 1e3,
                 model::predicted_gflops(model::Method::kVar1, s, mp, bp),
                 chosen == Variant::kVar1 ? "var1" : "var5");
      first = false;
    }
  }
  out += "]}";
}

/// Serving-health section (docs/SERVING.md "Overload & degradation"): the
/// process-wide health gauge plus the rolling-window burn rates it was
/// derived from, so a triage bundle answers "was the server degraded, and
/// why" without a separate metrics scrape.
void append_health(std::string& out, const metrics::MetricsSnapshot& snap) {
  const int h = snap.serve_health;
  const char* state = h == 0 ? "healthy" : (h == 1 ? "degraded" : "unhealthy");
  append_fmt(out,
             "\"health\":{\"serve_health\":%d,\"state\":\"%s\","
             "\"window_latency_burn_rate\":%.9g,"
             "\"window_availability_burn_rate\":%.9g,"
             "\"window_calls\":%llu,\"window_errors\":%llu}",
             h, state, snap.window_latency_burn_rate(),
             snap.window_availability_burn_rate(),
             static_cast<unsigned long long>(snap.window_calls()),
             static_cast<unsigned long long>(snap.window_errors()));
}

bool trigger_dump_hook(const char* path, const char* reason) {
  if (path == nullptr) return false;
  return write_bundle(path, reason);
}

struct HookRegistrar {
  HookRegistrar() { flightrec::set_dump_hook(&trigger_dump_hook); }
};
HookRegistrar g_registrar;

}  // namespace

std::string bundle_json(const char* reason) {
  std::string out;
  out.reserve(1 << 16);
  out += "{\"diag_version\":1,\"reason\":";
  append_escaped(out, reason != nullptr ? reason : "api");
  out += ',';
  append_build(out);
  out += ',';
  append_arch(out);
  out += ',';
  append_env(out);
  const metrics::MetricsSnapshot snap = metrics::snapshot();
  out += ",\"metrics\":";
  out += snap.to_json();
  out += ',';
  append_health(out, snap);
  out += ',';
  append_flightrec(out);
  out += ',';
  append_model(out);
  out += '}';
  return out;
}

bool write_bundle(const char* path, const char* reason) {
  return path != nullptr && metrics::write_file(path, bundle_json(reason));
}

void ensure_trigger_hook() {
  flightrec::set_dump_hook(&trigger_dump_hook);
}

}  // namespace gsknn::diag
