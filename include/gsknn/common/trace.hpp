// Trace-event export: per-thread span timelines for the kNN hot loops.
//
// A TraceSink records (phase, panel indices, tsc start/end) spans into
// lock-free per-thread ring buffers and serializes them as Chrome/Perfetto
// `trace_event` JSON — one track per thread slot, so 4th-loop load
// imbalance and the pack/micro/select interleaving are visible on a
// timeline (load the file in https://ui.perfetto.dev or chrome://tracing).
//
//   telemetry::TraceSink trace;
//   KnnConfig cfg;
//   cfg.trace = &trace;
//   knn_kernel(X, q, r, result, cfg);
//   trace.write_json("run.trace.json");
//
// Recording discipline:
//   * Spans live in the one per-thread ring (SlotRing, slot_ring.hpp,
//     shared with the flight recorder): a span is four relaxed word stores
//     and a release head store — no locks, no atomic RMW, no allocation
//     after a slot's first span. Threads that never overlap may share a
//     track. With no sink attached the drivers read no timestamps at all.
//   * Rings are fixed-size (GSKNN_TRACE_RING_KB per thread, default 1024)
//     and overflow by dropping the *oldest* spans; the count of dropped
//     spans is surfaced in the trace metadata (`otherData.dropped_spans`),
//     so tracing stays safe on arbitrarily long runs and the file says
//     exactly how much history it kept.
//   * Timestamps are raw TSC ticks on x86 (a rdtsc is ~10 cycles, far
//     cheaper than a clock_gettime per span) calibrated against the steady
//     clock between construction and export; other platforms fall back to
//     steady-clock nanoseconds directly.
//
// Export (to_json/write_json) must not race recording: serialize after the
// traced kernels have returned. One sink can span many kernel invocations;
// reset() clears the rings for reuse.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "gsknn/common/slot_ring.hpp"
#include "gsknn/common/telemetry.hpp"

namespace gsknn::telemetry {

/// Timestamp for TraceSink spans: raw TSC on x86, steady-clock ns elsewhere.
inline std::uint64_t trace_now() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// One recorded span. `a`/`b` carry the phase-specific panel indices
/// (pack_q: ic/pc, pack_r: jc/pc, micro & select: ic/jc, ...); -1 = absent.
struct TraceSpan {
  std::uint64_t t0 = 0;  ///< trace_now() at span start
  std::uint64_t t1 = 0;  ///< trace_now() at span end
  std::int32_t phase = 0;
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::int32_t pad = 0;
};

class TraceSink {
 public:
  /// Per-thread ring capacity. `ring_kb == 0` reads GSKNN_TRACE_RING_KB
  /// from the environment (default 1024 KB ≈ 32k spans per thread; values
  /// are clamped so a ring always holds at least 16 spans).
  explicit TraceSink(std::size_t ring_kb = 0);
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Record one span from the calling thread. Thread-safe against other
  /// record() calls; must not race to_json()/reset().
  void record(Phase phase, std::uint64_t t0, std::uint64_t t1, int a = -1,
              int b = -1);

  /// Spans currently retained across all rings (post-overflow).
  std::uint64_t span_count() const { return ring_.retained(); }
  /// Spans evicted by ring overflow (plus any recorded without a slot or
  /// ring).
  std::uint64_t dropped_spans() const { return ring_.dropped(); }
  /// Thread slots that have recorded into this sink so far.
  int thread_tracks() const { return ring_.slots_used(); }
  std::size_t ring_kb() const { return ring_kb_; }

  /// Chrome trace_event JSON ({"traceEvents":[...],"otherData":{...}}).
  std::string to_json() const;
  /// Serialize to a file; false (with errno set) when the file can't be
  /// written.
  bool write_json(const char* path) const;

  /// Drop all recorded spans (tracks stay claimed); not thread-safe against
  /// concurrent record().
  void reset();

 private:
  std::size_t ring_kb_ = 0;
  /// A span is four words: t0, t1, phase, then (a << 32) | b.
  SlotRing<4> ring_;
  std::uint64_t epoch_ticks_ = 0;  ///< trace_now() at construction
  std::chrono::steady_clock::time_point epoch_wall_;
};

}  // namespace gsknn::telemetry
