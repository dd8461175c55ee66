// TraceSink implementation (see include/gsknn/common/trace.hpp): per-thread
// span rings and the Chrome trace_event serializer.
#include "gsknn/common/trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "gsknn/common/metrics.hpp"

namespace gsknn::telemetry {

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

/// Single-producer span ring: only the owning thread writes, and export
/// happens after the traced region, so head is a plain counter.
struct TraceSink::Ring {
  std::vector<TraceSpan> buf;
  std::uint64_t head = 0;

  explicit Ring(std::size_t capacity) : buf(capacity) {}

  void push(const TraceSpan& s) {
    if (head >= buf.size()) {
      // Drop-oldest overwrite: the aggregate counter makes ring pressure
      // visible without exporting (or even finishing) the trace.
      metrics::add_counter(metrics::Counter::kTraceSpansDropped);
    }
    buf[static_cast<std::size_t>(head % buf.size())] = s;
    ++head;
  }
  std::uint64_t retained() const {
    return head < buf.size() ? head : buf.size();
  }
  std::uint64_t dropped() const {
    return head > buf.size() ? head - buf.size() : 0;
  }
};

TraceSink::TraceSink(std::size_t ring_kb)
    : ring_kb_(ring_kb > 0 ? ring_kb : env_ring_kb()) {
  ring_capacity_ = ring_kb_ * 1024 / sizeof(TraceSpan);
  if (ring_capacity_ < 16) ring_capacity_ = 16;
  epoch_ticks_ = trace_now();
  epoch_wall_ = std::chrono::steady_clock::now();
}

TraceSink::~TraceSink() {
  for (Ring* r : tracks()) delete r;
}

std::vector<TraceSink::Ring*> TraceSink::tracks() const {
  std::vector<Ring*> out;
  for (int i = 0; i < thread_slot_high_water(); ++i) {
    if (Ring* r = rings_[i].load(std::memory_order_acquire)) out.push_back(r);
  }
  return out;
}

void TraceSink::record(Phase phase, std::uint64_t t0, std::uint64_t t1,
                       int a, int b) {
  const int slot = thread_slot();
  if (slot < 0) {
    dropped_no_slot_.fetch_add(1, std::memory_order_relaxed);
    metrics::add_counter(metrics::Counter::kTraceSpansDropped);
    return;
  }
  // Only the slot's owner stores its ring, and the registry orders one
  // owner's writes before the next owner's reads.
  Ring* ring = rings_[slot].load(std::memory_order_relaxed);
  if (ring == nullptr) {
    ring = new Ring(ring_capacity_);
    rings_[slot].store(ring, std::memory_order_release);
  }
  TraceSpan s;
  s.t0 = t0;
  s.t1 = t1;
  s.phase = static_cast<std::int32_t>(phase);
  s.a = a;
  s.b = b;
  ring->push(s);
}

std::uint64_t TraceSink::span_count() const {
  std::uint64_t n = 0;
  for (const Ring* r : tracks()) n += r->retained();
  return n;
}

std::uint64_t TraceSink::dropped_spans() const {
  std::uint64_t n = dropped_no_slot_.load(std::memory_order_relaxed);
  for (const Ring* r : tracks()) n += r->dropped();
  return n;
}

void TraceSink::reset() {
  for (Ring* r : tracks()) r->head = 0;
  dropped_no_slot_.store(0, std::memory_order_relaxed);
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
  char buf[256];
  bool first = true;
  // Tracks are numbered densely in slot order.
  const std::vector<Ring*> rings = tracks();
  const int used = static_cast<int>(rings.size());
  for (int t = 0; t < used; ++t) {
    // Name each track so Perfetto shows "omp-<track>" instead of a bare tid.
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"omp-%d\"}}",
                  first ? "" : ",", t, t);
    first = false;
    j += buf;
  }
  for (int t = 0; t < used; ++t) {
    const Ring* r = rings[static_cast<std::size_t>(t)];
    const std::uint64_t retained = r->retained();
    const std::uint64_t start = r->head - retained;  // oldest surviving span
    for (std::uint64_t i = start; i < r->head; ++i) {
      const TraceSpan& s = r->buf[static_cast<std::size_t>(i % r->buf.size())];
      const double t0 = ts_us(s.t0);
      const double dur = ts_us(s.t1) - t0;
      const int ph = s.phase >= 0 && s.phase < kPhaseCount ? s.phase : 0;
      int len = std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"cat\":\"gsknn\",\"ph\":\"X\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":1,\"tid\":%d",
          first ? "" : ",", phase_name(static_cast<Phase>(ph)), t0,
          dur >= 0.0 ? dur : 0.0, t);
      first = false;
      j.append(buf, static_cast<std::size_t>(len));
      if (s.a >= 0 || s.b >= 0) {
        j += ",\"args\":{";
        bool inner_first = true;
        if (s.a >= 0) {
          len = std::snprintf(buf, sizeof(buf), "\"%s\":%d", kArgNames[ph].a,
                              s.a);
          j.append(buf, static_cast<std::size_t>(len));
          inner_first = false;
        }
        if (s.b >= 0) {
          len = std::snprintf(buf, sizeof(buf), "%s\"%s\":%d",
                              inner_first ? "" : ",", kArgNames[ph].b, s.b);
          j.append(buf, static_cast<std::size_t>(len));
        }
        j += '}';
      }
      j += '}';
    }
  }
  std::snprintf(buf, sizeof(buf),
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
  j += buf;
  return j;
}

bool TraceSink::write_json(const char* path) const {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const std::string j = to_json();
  const bool ok = std::fwrite(j.data(), 1, j.size(), f) == j.size();
  std::fclose(f);
  return ok;
}

}  // namespace gsknn::telemetry
