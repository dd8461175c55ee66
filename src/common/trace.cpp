// TraceSink implementation (see include/gsknn/common/trace.hpp): span
// recording into the one per-thread ring and the Chrome trace_event
// serializer.
#include "gsknn/common/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "gsknn/common/metrics.hpp"

namespace gsknn::telemetry {

using metrics::append_fmt;

namespace {

/// Phase-specific names for the a/b span payload (shown in the Perfetto
/// argument pane). Order matches telemetry::Phase.
struct ArgNames {
  const char* a;
  const char* b;
};
const ArgNames kArgNames[kPhaseCount] = {
    {"ic", "pc"},  // pack_q
    {"jc", "pc"},  // pack_r
    {"ic", "jc"},  // micro
    {"ic", "jc"},  // select
    {"i0", "i1"},  // merge
    {"m", "n"},    // collect
    {"m", "n"},    // sq2d
};

std::size_t env_ring_kb() {
  const char* e = std::getenv("GSKNN_TRACE_RING_KB");
  if (e == nullptr || e[0] == '\0') return 1024;
  const long v = std::strtol(e, nullptr, 10);
  return v > 0 ? static_cast<std::size_t>(v) : 1024;
}

}  // namespace

TraceSink::TraceSink(std::size_t ring_kb)
    : ring_kb_(ring_kb > 0 ? ring_kb : env_ring_kb()),
      ring_(std::max<std::size_t>(16, ring_kb_ * 1024 / sizeof(TraceSpan))),
      epoch_ticks_(trace_now()),
      epoch_wall_(std::chrono::steady_clock::now()) {}

void TraceSink::record(Phase phase, std::uint64_t t0, std::uint64_t t1,
                       int a, int b) {
  const auto u32 = [](int v) -> std::uint64_t {
    return static_cast<std::uint32_t>(v);
  };
  if (!ring_.push({t0, t1, static_cast<std::uint64_t>(phase),
                   u32(a) << 32 | u32(b)})) {
    // The aggregate counter makes ring pressure visible without exporting
    // (or even finishing) the trace.
    metrics::add_counter(metrics::Counter::kTraceSpansDropped);
  }
}

void TraceSink::reset() {
  ring_.clear();
  epoch_ticks_ = trace_now();
  epoch_wall_ = std::chrono::steady_clock::now();
}

std::string TraceSink::to_json() const {
  // Tick → microsecond calibration: on x86 the span timestamps are raw TSC,
  // so measure the tick rate over the sink's own lifetime (construction →
  // export brackets every recorded span). The non-x86 fallback records
  // steady-clock ns, where the rate is 1e-3 ticks/µs by definition.
  double ticks_per_us;
#if defined(__x86_64__) || defined(__i386__)
  {
    const std::uint64_t ticks = trace_now() - epoch_ticks_;
    const double us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - epoch_wall_)
            .count();
    ticks_per_us = (us > 0.0 && ticks > 0) ? static_cast<double>(ticks) / us
                                           : 1e3;  // ~1 GHz guess
  }
#else
  ticks_per_us = 1e3;
#endif

  const auto ts_us = [&](std::uint64_t ticks) {
    return static_cast<double>(ticks - epoch_ticks_) / ticks_per_us;
  };

  std::string j;
  j.reserve(1 << 16);
  j += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Tracks are numbered densely in slot order.
  std::vector<int> slots;
  ring_.for_each_slot([&slots](int slot) { slots.push_back(slot); });
  const int used = static_cast<int>(slots.size());
  for (int t = 0; t < used; ++t) {
    // Name each track so Perfetto shows "omp-<track>" instead of a bare tid.
    append_fmt(j,
               "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":%d,\"args\":{\"name\":\"omp-%d\"}}",
               first ? "" : ",", t, t);
    first = false;
  }
  for (int t = 0; t < used; ++t) {
    ring_.drain_slot(slots[static_cast<std::size_t>(t)], [&](std::uint64_t,
                                                            const auto& w) {
      const auto a = static_cast<std::int32_t>(w[3] >> 32);
      const auto b = static_cast<std::int32_t>(w[3]);
      const double t0 = ts_us(w[0]);
      const double dur = ts_us(w[1]) - t0;
      const int ph = w[2] < kPhaseCount ? static_cast<int>(w[2]) : 0;
      append_fmt(j,
                 "%s{\"name\":\"%s\",\"cat\":\"gsknn\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d",
                 first ? "" : ",", phase_name(static_cast<Phase>(ph)), t0,
                 dur >= 0.0 ? dur : 0.0, t);
      first = false;
      if (a >= 0 || b >= 0) {
        j += ",\"args\":{";
        if (a >= 0) append_fmt(j, "\"%s\":%d", kArgNames[ph].a, a);
        if (b >= 0) {
          append_fmt(j, "%s\"%s\":%d", a >= 0 ? "," : "", kArgNames[ph].b, b);
        }
        j += '}';
      }
      j += '}';
    });
  }
  append_fmt(j,
             "],\"otherData\":{\"ring_kb\":%zu,\"spans\":%llu,"
             "\"dropped_spans\":%llu,\"thread_tracks\":%d,"
             "\"clock\":\"%s\",\"ticks_per_us\":%.1f}}",
             ring_kb_, static_cast<unsigned long long>(span_count()),
             static_cast<unsigned long long>(dropped_spans()), used,
#if defined(__x86_64__) || defined(__i386__)
             "tsc",
#else
             "steady_ns",
#endif
             ticks_per_us);
  return j;
}

bool TraceSink::write_json(const char* path) const {
  return metrics::write_file(path, to_json());
}

}  // namespace gsknn::telemetry
