// Shared helpers for the experiment-reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper (see
// DESIGN.md §4). They print a machine header (so absolute numbers are
// interpretable), then the same rows/series the paper reports. Setting
// GSKNN_BENCH_QUICK=1 shrinks problem sizes ~4× for fast iteration; the
// recorded EXPERIMENTS.md numbers use the default (full) scale.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "gsknn/common/arch.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/common/telemetry.hpp"
#include "gsknn/common/timer.hpp"

#ifndef GSKNN_GIT_DESCRIBE
#define GSKNN_GIT_DESCRIBE "unknown"
#endif

namespace gsknn::bench {

inline bool quick_mode() {
  const char* e = std::getenv("GSKNN_BENCH_QUICK");
  return e != nullptr && e[0] == '1';
}

/// Scale a problem size down in quick mode (keeping tile multiples).
inline int scaled(int full, int quick) { return quick_mode() ? quick : full; }

inline void print_header(const char* title) {
  std::printf("# %s\n", title);
  std::printf("# machine: %s\n", arch_summary().c_str());
  std::printf("# mode: %s\n", quick_mode() ? "quick (GSKNN_BENCH_QUICK=1)" : "full");
}

/// Wall time of fn(), best of `reps` runs (kernels are deterministic; best-of
/// filters scheduler noise, matching the paper's 3-run averaging intent).
template <typename Fn>
double time_best(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// Quantile q of `v` (sorted in place), linear between order statistics.
inline double quantile(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Medians and quartiles of an interleaved A/B run: seconds per side, and
/// the per-pair ratio B/A (each B timed next to its own A, so slow drifts of
/// a shared host cancel out of the ratio).
struct AbStats {
  double a_q1, a_med, a_q3;
  double b_q1, b_med, b_q3;
  double ratio_q1, ratio_med, ratio_q3;
};

/// Time `pairs` A/B pairs of fn_a() and fn_b(), A first in even pairs and B
/// first in odd ones, after one untimed call of each.
template <typename FnA, typename FnB>
AbStats interleaved_ab(int pairs, FnA&& fn_a, FnB&& fn_b) {
  const auto timed = [](auto& fn) {
    WallTimer t;
    fn();
    return t.seconds();
  };
  fn_a();
  fn_b();
  std::vector<double> a, b, ratio;
  for (int p = 0; p < pairs; ++p) {
    double ta, tb;
    if (p % 2 == 0) {
      ta = timed(fn_a);
      tb = timed(fn_b);
    } else {
      tb = timed(fn_b);
      ta = timed(fn_a);
    }
    a.push_back(ta);
    b.push_back(tb);
    ratio.push_back(tb / ta);
  }
  return {quantile(a, 0.25),     quantile(a, 0.5),     quantile(a, 0.75),
          quantile(b, 0.25),     quantile(b, 0.5),     quantile(b, 0.75),
          quantile(ratio, 0.25), quantile(ratio, 0.5), quantile(ratio, 0.75)};
}

/// Useful-flop efficiency the paper plots: (2d+3)·m·n flops over `seconds`.
inline double knn_gflops(int m, int n, int d, double seconds) {
  return (2.0 * d + 3.0) * static_cast<double>(m) * n / seconds / 1e9;
}

inline std::vector<int> iota_ids(int n, int offset = 0) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), offset);
  return v;
}

// ---- structured output -----------------------------------------------------
//
// Alongside the human-readable tables, every bench can emit one JSON object
// per measurement row (JSON-lines) so sweeps are machine-consumable without
// scraping printf columns. Opt in with GSKNN_BENCH_JSON=<path> (append mode;
// "-" streams to stdout). Rows carry the bench name, the machine summary and
// whatever fields the bench supplies — typically a telemetry profile via
// KernelProfile::to_json() plus the sweep coordinates.

/// Destination for JSON-lines rows, or nullptr when not requested.
inline std::FILE* json_sink() {
  static std::FILE* sink = []() -> std::FILE* {
    const char* e = std::getenv("GSKNN_BENCH_JSON");
    if (e == nullptr || e[0] == '\0') return nullptr;
    if (e[0] == '-' && e[1] == '\0') return stdout;
    return std::fopen(e, "a");
  }();
  return sink;
}

/// Quote-escape for the tiny JSON fragments benches build by hand.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// CPU model string from /proc/cpuinfo ("model name" row), or "unknown" —
/// the machine-summary field only carries SIMD/cache geometry, which is not
/// enough to tell two hosts apart when comparing snapshots.
inline std::string cpu_model_name() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  std::string model = "unknown";
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* colon = std::strchr(line, ':');
    if (colon != nullptr) {
      const char* p = colon + 1;
      while (*p == ' ' || *p == '\t') ++p;
      model = p;
      while (!model.empty() &&
             (model.back() == '\n' || model.back() == '\r')) {
        model.pop_back();
      }
    }
    break;
  }
  std::fclose(f);
  return model;
}

/// One provenance header row per process, ahead of the first data row:
/// which build (git describe + compiler), which machine (SIMD level + CPU
/// model), and when (timestamp passed by the harness via
/// GSKNN_BENCH_TIMESTAMP, null when absent — the library takes no clock
/// dependency here). tools/bench_snapshot.py lifts it into the snapshot
/// document and tools/check_perf.py carries it through comparisons.
inline void emit_provenance_row(std::FILE* f) {
  const CpuFeatures& feats = cpu_features();
  const char* simd = feats.avx512f ? "avx512"
                     : feats.avx2  ? "avx2"
                                   : "scalar";
  const char* ts = std::getenv("GSKNN_BENCH_TIMESTAMP");
  std::string ts_field = "null";
  if (ts != nullptr && ts[0] != '\0') {
    ts_field = "\"" + json_escape(ts) + "\"";
  }
  std::fprintf(f,
               "{\"bench\":\"__provenance\",\"git\":\"%s\",\"compiler\":"
               "\"%s\",\"simd\":\"%s\",\"cpu\":\"%s\",\"timestamp\":%s}\n",
               json_escape(GSKNN_GIT_DESCRIBE).c_str(),
#ifdef __VERSION__
               json_escape(__VERSION__).c_str(),
#else
               "unknown",
#endif
               simd, json_escape(cpu_model_name()).c_str(),
               ts_field.c_str());
}

/// Emit one JSON-lines row. `fields` is the comma-separated interior of a
/// JSON object (e.g. "\"m\":4096,\"gflops\":21.3" or a profile's to_json()
/// with the braces stripped); bench/machine/mode envelope fields are added.
/// The first row of a process is preceded by a __provenance header row.
inline void emit_json_row(const char* bench, const std::string& fields) {
  std::FILE* f = json_sink();
  if (f == nullptr) return;
  static bool provenance_emitted = false;
  if (!provenance_emitted) {
    provenance_emitted = true;
    emit_provenance_row(f);
  }
  std::fprintf(f, "{\"bench\":\"%s\",\"machine\":\"%s\",\"quick\":%s%s%s}\n",
               bench, json_escape(arch_summary()).c_str(),
               quick_mode() ? "true" : "false", fields.empty() ? "" : ",",
               fields.c_str());
  std::fflush(f);
}

/// Optional hardware-counter columns for a bench row: real values when the
/// profile carries a PMU attribution, JSON nulls otherwise — the schema is
/// stable either way, so downstream parsers (tools/check_perf.py) need no
/// awareness of whether the run had perf access. Miss rates are per retired
/// instruction (MPKI / 1000).
inline std::string pmu_json_cols(const telemetry::KernelProfile& prof) {
  const double instr =
      static_cast<double>(prof.pmu_total(telemetry::PmuEvent::kInstructions));
  if (!prof.pmu_enabled || instr <= 0.0) {
    return "\"ipc\":null,\"l1_miss_rate\":null,\"llc_miss_rate\":null";
  }
  char buf[128];
  std::snprintf(
      buf, sizeof(buf),
      "\"ipc\":%.3f,\"l1_miss_rate\":%.6f,\"llc_miss_rate\":%.6f", prof.ipc(),
      static_cast<double>(prof.pmu_total(telemetry::PmuEvent::kL1dMisses)) /
          instr,
      static_cast<double>(prof.pmu_total(telemetry::PmuEvent::kLlcMisses)) /
          instr);
  return buf;
}

/// Aggregate-latency columns for a bench row: what the always-on registry
/// (gsknn/common/metrics.hpp) recorded for one entry point since the last
/// metrics::reset(). Benches reset per measurement cell, so the columns
/// describe that cell alone; quantiles are log2-bucket upper edges.
inline std::string metrics_json_cols(metrics::EntryPoint ep) {
  const metrics::MetricsSnapshot s = metrics::snapshot();
  char buf[160];
  std::snprintf(
      buf, sizeof(buf),
      "\"agg_calls\":%llu,\"agg_p50_ns\":%llu,\"agg_p99_ns\":%llu",
      static_cast<unsigned long long>(s.calls_total(ep)),
      static_cast<unsigned long long>(s.latency_quantile_ns(ep, 0.5)),
      static_cast<unsigned long long>(s.latency_quantile_ns(ep, 0.99)));
  return buf;
}

/// Convenience: strip the outer braces of KernelProfile::to_json() (or any
/// one-object JSON string) so it can be spliced into a row's fields.
inline std::string json_fields(const std::string& object_json) {
  if (object_json.size() >= 2 && object_json.front() == '{' &&
      object_json.back() == '}') {
    return object_json.substr(1, object_json.size() - 2);
  }
  return object_json;
}

}  // namespace gsknn::bench
