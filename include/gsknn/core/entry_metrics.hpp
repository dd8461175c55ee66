// The one status boundary of the public entry points. Every entry point —
// the kernel (cold and warm, both precisions), batch, parallel_refs, the
// baselines and the tree solvers — is written once as a Status-returning
// body run through run_entry(), the only place that
//   * maps an escaping exception onto a Status: StatusError to its status,
//     std::bad_alloc to kResourceExhausted, anything else to kInternal;
//   * records the call's (status, latency, shape) sample into the metrics
//     registry (gsknn/common/metrics.hpp) and its call_begin/call_end pair
//     into the flight recorder (gsknn/common/flightrec.hpp), each gated only
//     on its own sink being armed;
//   * keeps the failure's text for the throwing forms and the C API
//     (entry_error()).
// A throwing form is throw_if_error() over its Status form. Not part of the
// public API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <new>
#include <utility>

#include "gsknn/common/flightrec.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/common/status.hpp"

namespace gsknn::core {

/// This thread's text of the last non-kOk outcome run_entry() returned: the
/// mapped exception's what(), or "gsknn: <entry> stopped: <status>" for a
/// status the body returned. Read right after a non-kOk return, it describes
/// that call (the outermost bracket of a nested call writes last). A fixed
/// buffer, so keeping the text never allocates or throws.
inline constexpr std::size_t kEntryErrorSize = 256;
inline char* entry_error() {
  thread_local char text[kEntryErrorSize] = {};
  return text;
}

/// The clock readings behind one bracketed call, for callers that derive a
/// further sample from the same measured interval. Left zero when both
/// sinks are disarmed (no clock is read then).
struct EntryTiming {
  std::uint64_t end_ns = 0;      ///< now_ns() at the end of the call
  std::uint64_t elapsed_ns = 0;  ///< end_ns minus the start reading
};

/// Run one entry-point body, `Status body()`, under the bracket described
/// above; never throws. `m, n, d, k` is the call's shape for both sinks.
/// When `timing` is given it receives the measured interval.
template <typename Fn>
Status run_entry(metrics::EntryPoint ep, int m, int n, int d, int k,
                 Fn&& body, EntryTiming* timing = nullptr) noexcept {
  const bool met = metrics::enabled();
  const bool rec = flightrec::enabled();
  const std::uint64_t t0 = (met || rec) ? metrics::now_ns() : 0;
  if (rec) {
    flightrec::record(flightrec::Kind::kCallBegin, static_cast<int>(ep), 0,
                      0, m, n, d, k);
  }
  Status s = Status::kInternal;
  try {
    s = std::forward<Fn>(body)();
    if (s != Status::kOk) {
      std::snprintf(entry_error(), kEntryErrorSize, "gsknn: %s stopped: %s",
                    metrics::entry_point_name(ep), status_name(s));
    }
  } catch (const StatusError& e) {
    s = e.status();
    std::snprintf(entry_error(), kEntryErrorSize, "%s", e.what());
  } catch (const std::bad_alloc& e) {
    s = Status::kResourceExhausted;
    std::snprintf(entry_error(), kEntryErrorSize, "gsknn: %s: %s",
                  metrics::entry_point_name(ep), e.what());
  } catch (const std::exception& e) {
    s = Status::kInternal;
    std::snprintf(entry_error(), kEntryErrorSize, "gsknn: %s: %s",
                  metrics::entry_point_name(ep), e.what());
  } catch (...) {
    s = Status::kInternal;
    std::snprintf(entry_error(), kEntryErrorSize,
                  "gsknn: %s: unknown exception",
                  metrics::entry_point_name(ep));
  }
  if (met || rec) {
    const std::uint64_t t1 = metrics::now_ns();
    if (met) {
      metrics::record_call_at(t1, ep, static_cast<int>(s), t1 - t0, m, n, d,
                              k);
    }
    if (rec) {
      flightrec::record(flightrec::Kind::kCallEnd, static_cast<int>(ep),
                        static_cast<int>(s), t1 - t0, m, n, d, k);
    }
    if (timing != nullptr) *timing = EntryTiming{t1, t1 - t0};
  }
  return s;
}

/// The throwing forms' one line: raise a non-kOk Status as a StatusError
/// carrying the text run_entry() kept for it.
inline void throw_if_error(Status s) {
  if (s != Status::kOk) throw StatusError(s, entry_error());
}

}  // namespace gsknn::core
