// Internal helpers bracketing public entry points with the aggregate
// metrics layer (gsknn/common/metrics.hpp) and the flight recorder
// (gsknn/common/flightrec.hpp): one steady-clock pair per call, the
// resulting Status recorded even when the entry point reports it by
// throwing, plus a call_begin/call_end event pair in the recorder. Used by
// the driver, baselines, batch, parallel_refs and the tree solvers; not
// part of the public API.
#pragma once

#include <cstdint>
#include <new>
#include <utility>

#include "gsknn/common/flightrec.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/core/knn.hpp"

namespace gsknn::core {

/// One finished-call sample into both sinks; `t1` is the end-of-call
/// now_ns() so the metrics layer places it in the right window slot
/// without a second clock read. Returns `t1`.
inline std::uint64_t record_entry_end(bool met, bool rec,
                                      metrics::EntryPoint ep, int status,
                                      std::uint64_t t0, int m, int n, int d,
                                      int k) {
  const std::uint64_t t1 = metrics::now_ns();
  if (met) metrics::record_call_at(t1, ep, status, t1 - t0, m, n, d, k);
  if (rec) {
    flightrec::record(flightrec::Kind::kCallEnd, static_cast<int>(ep),
                      status, t1 - t0, m, n, d, k);
  }
  return t1;
}

/// The clock readings behind one bracketed call that returned normally, for
/// callers that derive a further sample from the same measured interval.
/// Left zero when both sinks are disarmed (no clock is read then).
struct EntryTiming {
  std::uint64_t end_ns = 0;      ///< now_ns() at the end of the call
  std::uint64_t elapsed_ns = 0;  ///< end_ns minus the start reading
};

/// Run a throwing entry-point body under metrics. StatusError/bad_alloc are
/// recorded with their mapped status and rethrown; any other exception
/// records kInternal (the same mapping the C boundary applies).
template <typename Fn>
void record_entry(metrics::EntryPoint ep, int m, int n, int d, int k,
                  Fn&& fn) {
  const bool met = metrics::enabled();
  const bool rec = flightrec::enabled();
  if (!met && !rec) {
    std::forward<Fn>(fn)();
    return;
  }
  const std::uint64_t t0 = metrics::now_ns();
  if (rec) {
    flightrec::record(flightrec::Kind::kCallBegin, static_cast<int>(ep), 0,
                      0, m, n, d, k);
  }
  try {
    std::forward<Fn>(fn)();
  } catch (const StatusError& e) {
    record_entry_end(met, rec, ep, static_cast<int>(e.status()), t0, m, n, d,
                     k);
    throw;
  } catch (const std::bad_alloc&) {
    record_entry_end(met, rec, ep,
                     static_cast<int>(Status::kResourceExhausted), t0, m, n,
                     d, k);
    throw;
  } catch (...) {
    record_entry_end(met, rec, ep, static_cast<int>(Status::kInternal), t0,
                     m, n, d, k);
    throw;
  }
  record_entry_end(met, rec, ep, static_cast<int>(Status::kOk), t0, m, n, d,
                   k);
}

/// Status-returning form: records the returned Status; a body that throws
/// anyway (validation paths) is recorded and the exception propagated for
/// the caller's catch-to-Status mapping. When `timing` is given, a body
/// that returns fills it with the measured interval.
template <typename Fn>
Status record_entry_status(metrics::EntryPoint ep, int m, int n, int d,
                           int k, Fn&& fn, EntryTiming* timing = nullptr) {
  const bool met = metrics::enabled();
  const bool rec = flightrec::enabled();
  if (!met && !rec) return std::forward<Fn>(fn)();
  const std::uint64_t t0 = metrics::now_ns();
  if (rec) {
    flightrec::record(flightrec::Kind::kCallBegin, static_cast<int>(ep), 0,
                      0, m, n, d, k);
  }
  Status s = Status::kInternal;
  try {
    s = std::forward<Fn>(fn)();
  } catch (const StatusError& e) {
    record_entry_end(met, rec, ep, static_cast<int>(e.status()), t0, m, n, d,
                     k);
    throw;
  } catch (const std::bad_alloc&) {
    record_entry_end(met, rec, ep,
                     static_cast<int>(Status::kResourceExhausted), t0, m, n,
                     d, k);
    throw;
  } catch (...) {
    record_entry_end(met, rec, ep, static_cast<int>(Status::kInternal), t0,
                     m, n, d, k);
    throw;
  }
  const std::uint64_t t1 =
      record_entry_end(met, rec, ep, static_cast<int>(s), t0, m, n, d, k);
  if (timing != nullptr) *timing = EntryTiming{t1, t1 - t0};
  return s;
}

}  // namespace gsknn::core
