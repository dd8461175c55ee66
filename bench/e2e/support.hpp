// Helpers for the end-to-end benchmark driver: sample statistics, the
// correctness ledger, the metric report and the in-memory span tracer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Linearly interpolated quantile (numpy's default), NaN when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Every operation whose output the benchmark judges, and the ones that
/// failed: a non-kOk status, a refused request that should have been
/// admitted, or an output that fails its check.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< first few failure reasons

  void expect(bool ok, const std::string& why) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (notes.size() < 8) notes.push_back(why);
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics of one run, by kind: end-to-end (what a user sees), per-layer
/// (from the traced run) and diagnostics (printed, never gated).
struct Report {
  std::vector<Metric> e2e, layer, diag;
};

inline std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

inline std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ",";
    out += json_str(ms[i].name) + ":{\"value\":" + json_num(ms[i].value) +
           ",\"unit\":" + json_str(ms[i].unit) + "}";
  }
  return out + "}";
}

/// Spans recorded in memory while enabled and written out at the end as
/// Chrome trace events (chrome://tracing, ui.perfetto.dev). Each span has
/// a name, start, end, parent span and request id. Spans with a request id
/// (serving tickets, which overlap in time) are async events keyed by it;
/// the rest nest on one synchronous track. Disabled, every call is one
/// branch, so the untraced measurement reads no extra clocks.
class Tracer {
 public:
  void enable() { on_ = true; }
  bool on() const { return on_; }

  /// Open a span now; returns its id (0 when disabled).
  int open(const char* name, int parent = 0, std::uint64_t req = 0) {
    if (!on_) return 0;
    spans_.push_back({name, Clock::now(), {}, parent, req});
    return static_cast<int>(spans_.size());
  }
  void close(int id) {
    if (id > 0) spans_[static_cast<std::size_t>(id - 1)].t1 = Clock::now();
  }
  /// Record a span whose ends are already known (e.g. from a due time).
  int add(const char* name, Clock::time_point t0, Clock::time_point t1,
          int parent, std::uint64_t req = 0) {
    if (!on_) return 0;
    spans_.push_back({name, t0, t1, parent, req});
    return static_cast<int>(spans_.size());
  }

  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    Clock::time_point origin = Clock::time_point::max();
    for (const Span& s : spans_) origin = std::min(origin, s.t0);
    auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const char* sep = i + 1 < spans_.size() ? "," : "";
      const std::string args = "{\"span\":" + std::to_string(i + 1) +
                               ",\"parent\":" + std::to_string(s.parent) +
                               ",\"req\":" + std::to_string(s.req) + "}";
      if (s.req == 0) {
        std::fprintf(f,
                     "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}%s\n",
                     json_str(s.name).c_str(), us(s.t0), us(s.t1) - us(s.t0),
                     args.c_str(), sep);
      } else {
        std::fprintf(f,
                     "{\"name\":%s,\"cat\":\"req\",\"ph\":\"b\",\"id\":%llu,"
                     "\"pid\":1,\"tid\":2,\"ts\":%.3f,\"args\":%s},\n"
                     "{\"name\":%s,\"cat\":\"req\",\"ph\":\"e\",\"id\":%llu,"
                     "\"pid\":1,\"tid\":2,\"ts\":%.3f}%s\n",
                     json_str(s.name).c_str(),
                     static_cast<unsigned long long>(s.req), us(s.t0),
                     args.c_str(), json_str(s.name).c_str(),
                     static_cast<unsigned long long>(s.req), us(s.t1), sep);
      }
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point t0, t1;
    int parent;
    std::uint64_t req;
  };
  bool on_ = false;
  std::vector<Span> spans_;
};

/// RAII span over a synchronous call.
class Scope {
 public:
  Scope(Tracer& tr, const char* name, int parent = 0, std::uint64_t req = 0)
      : tr_(tr), id_(tr.open(name, parent, req)) {}
  ~Scope() { tr_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tr_;
  int id_;
};

}  // namespace e2e
