// gsknn::flightrec — always-on flight recorder for post-hoc triage.
//
// The aggregate metrics layer (gsknn/common/metrics.hpp) answers "what are
// the rates"; the flight recorder answers "what were the last few thousand
// things that happened, in order" — the black box you drain after a burst
// of kDeadlineExceeded or from a crash handler. Every public entry point
// records a begin/end event pair (shape + status + latency); the governance
// and cache layers record retiles, deadline hits, cancellations,
// pack-cache evictions/updates, stale-epoch rejections and fault
// injections.
//
// Events live in the one per-thread ring (SlotRing, slot_ring.hpp, shared
// with TraceSink): kRingCapacity recent events per thread slot, five
// relaxed atomic words each, so recording never blocks and a drain can run
// beside it (an event overwritten mid-read may tear logically).
//
// Armed by default at a cost comparable to the metrics hot path (~tens of
// ns; bench/micro_flightrec.cpp guards the <=1% end-to-end budget).
// GSKNN_FLIGHTREC=0 in the environment disarms recording at startup; the
// disarmed cost is one relaxed atomic load.
//
// Dumping:
//   * on demand: dump_json() / dump_to_file() render a drain as versioned
//     JSON-lines (header line with flightrec_version, then one event per
//     line) — the format tools/check_diag.py validates;
//   * on any non-OK call completion whose status bit is set in the trigger
//     mask (default: all non-OK), *once* per arming: if a dump hook is
//     installed (gsknn::diag registers one that writes a full diagnostics
//     bundle) it runs; otherwise the raw drain is written to the
//     GSKNN_FLIGHTREC_DUMP path. No destination -> the trigger stays
//     armed. rearm_trigger() re-enables it after a consumed trigger;
//   * from a fatal signal: install_crash_handler() (the CLI does) hooks
//     SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT with an async-signal-safe
//     writer (hand-rolled formatting + write(2)) targeting the
//     GSKNN_FLIGHTREC_DUMP path, else stderr, then re-raises.
//
// See docs/OBSERVABILITY.md "Flight recorder & SLO windows".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gsknn::flightrec {

/// Event kinds. Stable lowercase names (kind_name) appear in the JSON-lines
/// dump and are validated by tools/check_diag.py.
enum class Kind : int {
  kCallBegin = 0,  ///< entry point entered (entry, shape)
  kCallEnd,        ///< entry point returned (entry, status, latency ns)
  kRetile,         ///< workspace degradation ladder ran (value = steps)
  kDeadline,       ///< KnnConfig::deadline expired mid-call
  kCancel,         ///< cancel token observed set mid-call
  kPackEvict,      ///< pack-cache block evicted (value = bytes freed)
  kPackUpdate,     ///< PackedRefs insert/erase epoch bump (value = epoch)
  kStaleReject,    ///< warm call rejected: pinned epoch went stale
  kFault,          ///< fault injection fired (value = site id)
  kServeSubmit,    ///< serving ticket admitted (entry = lane, value = queue
                   ///< depth after enqueue)
  kServeFuse,      ///< fused serving dispatch (entry = lane, value = tickets
                   ///< carried by the call)
  kServeShed,      ///< submit refused by predictive admission (entry = lane,
                   ///< value = retry_after hint in ns)
  kServeWatchdog,  ///< watchdog cancelled a stuck fused call (entry = lane,
                   ///< value = elapsed ns when fired)
  kServeBreaker,   ///< circuit-breaker transition (value = 1 open, 0 close)
  kNumKinds,
};

inline constexpr int kKindCount = static_cast<int>(Kind::kNumKinds);

const char* kind_name(Kind k);

/// Per-ring capacity, fixed at compile time.
inline constexpr int kRingCapacity = 1024;

/// One decoded event, as drain() returns it (plain struct, already
/// un-packed from the atomic words).
struct Event {
  std::uint64_t t_ns = 0;   ///< metrics::now_ns() at record time
  std::uint64_t seq = 0;    ///< per-ring sequence number (monotonic)
  int thread_slot = -1;     ///< registry slot of the recording thread
  Kind kind = Kind::kCallBegin;
  int entry = -1;           ///< metrics::EntryPoint value; -1 = none
  int status = 0;           ///< gsknn::Status value (kCallEnd), else 0
  std::uint64_t value = 0;  ///< kind-specific payload (latency ns, bytes…)
  std::uint32_t m = 0, n = 0, d = 0, k = 0;
};

/// Whether recording is armed. Defaults to true; GSKNN_FLIGHTREC=0 in the
/// environment disarms it before the first record.
bool enabled();
void set_enabled(bool on);

/// Record one event. No-op (one relaxed load) when disarmed. kCallEnd
/// events run the non-OK trigger check (see trigger mask above).
void record(Kind kind, int entry, int status, std::uint64_t value, int m = 0,
            int n = 0, int d = 0, int k = 0);

/// Snapshot the retained events of every ring, oldest-first, merged and
/// sorted by (t_ns, seq). May race recording (see header comment).
std::vector<Event> drain();

/// Events lost so far: ring overwrites plus records from threads that held
/// no registry slot or whose ring could not be allocated.
std::uint64_t dropped();

/// Forget all retained events and zero dropped(). May race recording.
void clear();

/// Trigger mask: bit (1 << status) fires a one-shot dump when a kCallEnd
/// with that status is recorded. Default: every non-OK status bit set.
/// GSKNN_FLIGHTREC_TRIGGER=<hex or decimal mask> overrides at startup
/// (0 disables status-triggered dumps).
std::uint32_t trigger_mask();
void set_trigger_mask(std::uint32_t mask);

/// Whether the one-shot trigger already fired; rearm_trigger() resets it.
bool trigger_fired();
void rearm_trigger();

/// Hook consulted before the built-in raw dump when a trigger fires.
/// `path` is the GSKNN_FLIGHTREC_DUMP value (may be null), `reason` a short
/// token like "status_trigger:deadline_exceeded". Return true when handled
/// (suppresses the raw dump). gsknn::diag installs one to upgrade trigger
/// dumps to full diagnostics bundles.
using DumpHook = bool (*)(const char* path, const char* reason);
void set_dump_hook(DumpHook hook);

/// Render a drain as versioned JSON-lines: a header object
/// {"flightrec_version":1,"reason":…,"dropped":…,"events":N} then one
/// event object per line.
std::string dump_json(const char* reason);

/// Append one event as a JSON object (no trailing newline). The one
/// renderer of an event: dump_json(), dump_to_fd() and the diag bundle's
/// flightrec.events all write through it.
void append_event_json(std::string& out, const Event& ev);

/// dump_json() to a file; false on I/O failure.
bool dump_to_file(const char* path, const char* reason);

/// Async-signal-safe dump (hand-rolled formatting, write(2) only); used by
/// the crash handler but callable anywhere.
void dump_to_fd(int fd, const char* reason);

/// Install the fatal-signal handler (SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT):
/// dumps to GSKNN_FLIGHTREC_DUMP (else stderr), then re-raises with the
/// default disposition. Idempotent. The library never installs it on its
/// own — hosts opt in (the CLI does).
void install_crash_handler();

}  // namespace gsknn::flightrec
