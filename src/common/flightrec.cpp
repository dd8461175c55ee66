// Flight recorder (see include/gsknn/common/flightrec.hpp).
#include "gsknn/common/flightrec.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include "gsknn/common/metrics.hpp"
#include "gsknn/common/slot_ring.hpp"

namespace gsknn::flightrec {

namespace {

const char* const kKindNames[kKindCount] = {
    "call_begin", "call_end",    "retile",       "deadline",     "cancel",
    "pack_evict", "pack_update", "stale_reject", "fault",
    "serve_submit", "serve_fuse", "serve_shed",  "serve_watchdog",
    "serve_breaker",
};

// ---- event rings -----------------------------------------------------------

// An event is five words. Word 1 packs the discriminants:
//   bits [0,8)   kind
//   bits [8,16)  entry + 1 (0 = none)
//   bits [16,32) status
// Words 3/4 pack the shape as (m << 32) | n and (d << 32) | k.
constexpr int kWordsPerEvent = 5;
using EventRing = SlotRing<kWordsPerEvent>;

/// The recorder's rings. Never destroyed: thread-exit paths can still
/// record after static destruction has begun.
union Rings {
  constexpr Rings() : ring(kRingCapacity) {}
  ~Rings() {}
  EventRing ring;
};
constinit Rings g_rings;

bool initial_enabled() {
  const char* e = std::getenv("GSKNN_FLIGHTREC");
  return e == nullptr || e[0] != '0';
}

std::atomic<bool> g_enabled{initial_enabled()};

// ---- status-trigger state --------------------------------------------------

// Default trigger mask: every non-OK status bit (statuses are small ints;
// gsknn::Status has 11 values, bit 0 is kOk).
constexpr std::uint32_t kDefaultTriggerMask = 0xFFFFFFFEu;

std::uint32_t initial_trigger_mask() {
  const char* e = std::getenv("GSKNN_FLIGHTREC_TRIGGER");
  if (e == nullptr || *e == '\0') return kDefaultTriggerMask;
  return static_cast<std::uint32_t>(std::strtoul(e, nullptr, 0));
}

std::atomic<std::uint32_t> g_trigger_mask{initial_trigger_mask()};
std::atomic<bool> g_trigger_fired{false};
std::atomic<DumpHook> g_dump_hook{nullptr};

/// GSKNN_FLIGHTREC_DUMP, latched once (also read by the signal handler,
/// which must not call getenv).
const char* trigger_path() {
  static const char* path = std::getenv("GSKNN_FLIGHTREC_DUMP");
  return path;
}

void maybe_trigger(int status) {
  if (status <= 0 || status >= 32) return;
  const std::uint32_t mask = g_trigger_mask.load(std::memory_order_relaxed);
  if (((mask >> status) & 1u) == 0) return;
  const DumpHook hook = g_dump_hook.load(std::memory_order_relaxed);
  const char* path = trigger_path();
  if (hook == nullptr && path == nullptr) return;  // nowhere to dump
  bool expected = false;
  if (!g_trigger_fired.compare_exchange_strong(expected, true,
                                               std::memory_order_relaxed)) {
    return;  // one-shot until rearm_trigger()
  }
  char reason[64];
  std::snprintf(reason, sizeof(reason), "status_trigger:%s",
                metrics::status_label(status));
  try {
    if (hook != nullptr && hook(path, reason)) return;
    if (path != nullptr) dump_to_file(path, reason);
  } catch (...) {
    // A dump that cannot be rendered (out of memory) is skipped: recording
    // a call's outcome must never become a failure of its own.
  }
}

Event decode(const EventRing::Record& w, std::uint64_t seq, int slot) {
  const int kind = static_cast<int>(w[1] & 0xFF);
  return Event{w[0], seq, slot,
               static_cast<Kind>(kind < kKindCount ? kind : 0),  // torn read
               static_cast<int>((w[1] >> 8) & 0xFF) - 1,
               static_cast<int>((w[1] >> 16) & 0xFFFF), w[2],
               static_cast<std::uint32_t>(w[3] >> 32),
               static_cast<std::uint32_t>(w[3]),
               static_cast<std::uint32_t>(w[4] >> 32),
               static_cast<std::uint32_t>(w[4])};
}

/// Calls fn(event) for every retained event, slot by slot, oldest first
/// within a slot. Allocation-free (the signal path drains through it).
template <typename Fn>
void for_each_event(Fn&& fn) {
  const EventRing& ring = g_rings.ring;
  ring.for_each_slot([&](int slot) {
    ring.drain_slot(slot, [&](std::uint64_t seq, const EventRing::Record& w) {
      fn(decode(w, seq, slot));
    });
  });
}

// ---- async-signal-safe formatting ------------------------------------------

// The signal-path writer may not allocate, lock, or call stdio. These
// helpers format into caller-provided buffers with plain stores.

std::size_t fmt_u64(char* buf, std::uint64_t v) {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

/// Formats through a fixed buffer into `out` when set, else into `fd` with
/// write(2) alone (async-signal-safe).
struct Writer {
  explicit Writer(int target) : fd(target) {}
  explicit Writer(std::string& target) : out(&target) {}

  int fd = -1;
  std::string* out = nullptr;
  char buf[512];
  std::size_t len = 0;

  void flush() {
    if (out != nullptr) {
      out->append(buf, len);
      len = 0;
      return;
    }
    std::size_t off = 0;
    while (off < len) {
      const ssize_t w = ::write(fd, buf + off, len - off);
      if (w <= 0) break;
      off += static_cast<std::size_t>(w);
    }
    len = 0;
  }
  void str(const char* s) {
    for (; *s != '\0'; ++s) {
      if (len == sizeof(buf)) flush();
      buf[len++] = *s;
    }
  }
  void u64(std::uint64_t v) {
    if (len + 20 > sizeof(buf)) flush();
    len += fmt_u64(buf + len, v);
  }
  void i64(std::int64_t v) {
    if (v < 0) {
      str("-");
      u64(static_cast<std::uint64_t>(-v));
    } else {
      u64(static_cast<std::uint64_t>(v));
    }
  }
};

/// The dump header line; `events` < 0 when the count is not known up front.
void write_header(Writer& w, const char* reason, std::int64_t events) {
  w.str("{\"flightrec_version\":1,\"reason\":\"");
  w.str(reason != nullptr ? reason : "on_demand");
  w.str("\",\"dropped\":");
  w.u64(dropped());
  w.str(",\"events\":");
  w.i64(events);
  w.str("}\n");
}

/// The one renderer of an event object (no trailing newline).
void write_event(Writer& w, const Event& ev) {
  w.str("{\"t_ns\":");
  w.u64(ev.t_ns);
  w.str(",\"seq\":");
  w.u64(ev.seq);
  w.str(",\"thread\":");
  w.i64(ev.thread_slot);
  w.str(",\"kind\":\"");
  w.str(kind_name(ev.kind));
  w.str("\",\"entry\":");
  if (ev.entry < 0) {
    w.str("null");
  } else {
    w.str("\"");
    w.str(metrics::entry_point_name(
        static_cast<metrics::EntryPoint>(ev.entry)));
    w.str("\"");
  }
  w.str(",\"status\":\"");
  w.str(metrics::status_label(ev.status));
  w.str("\",\"value\":");
  w.u64(ev.value);
  w.str(",\"m\":");
  w.u64(ev.m);
  w.str(",\"n\":");
  w.u64(ev.n);
  w.str(",\"d\":");
  w.u64(ev.d);
  w.str(",\"k\":");
  w.u64(ev.k);
  w.str("}");
}

// ---- crash handler ---------------------------------------------------------

volatile sig_atomic_t g_in_crash_dump = 0;

void crash_handler(int sig) {
  // Restore default disposition first so a fault *inside* the dump (or the
  // re-raise below) terminates instead of recursing.
  ::signal(sig, SIG_DFL);
  if (g_in_crash_dump == 0) {
    g_in_crash_dump = 1;
    int fd = 2;
    const char* path = trigger_path();
    if (path != nullptr) {
      const int f = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (f >= 0) fd = f;
    }
    char reason[32];
    std::size_t n = 0;
    const char* prefix = "fatal_signal:";
    while (prefix[n] != '\0') {
      reason[n] = prefix[n];
      ++n;
    }
    n += fmt_u64(reason + n, static_cast<std::uint64_t>(sig));
    reason[n] = '\0';
    dump_to_fd(fd, reason);
    if (fd != 2) ::close(fd);
  }
  ::raise(sig);
}

}  // namespace

const char* kind_name(Kind k) {
  const int i = static_cast<int>(k);
  return (i >= 0 && i < kKindCount) ? kKindNames[i] : "?";
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

void record(Kind kind, int entry, int status, std::uint64_t value, int m,
            int n, int d, int k) {
  if (!enabled()) return;
  const auto u32 = [](int v) -> std::uint64_t {
    return static_cast<std::uint32_t>(v < 0 ? 0 : v);
  };
  const std::uint64_t meta =
      static_cast<std::uint64_t>(static_cast<int>(kind) & 0xFF) |
      (static_cast<std::uint64_t>(entry < 0 ? 0 : (entry & 0x7F) + 1) << 8) |
      (static_cast<std::uint64_t>(status & 0xFFFF) << 16);
  g_rings.ring.push({metrics::now_ns(), meta, value, u32(m) << 32 | u32(n),
                     u32(d) << 32 | u32(k)});
  if (kind == Kind::kCallEnd) maybe_trigger(status);
}

std::vector<Event> drain() {
  std::vector<Event> out;
  out.reserve(256);
  for_each_event([&out](const Event& ev) { out.push_back(ev); });
  std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
    if (a.thread_slot != b.thread_slot) return a.thread_slot < b.thread_slot;
    return a.seq < b.seq;
  });
  return out;
}

std::uint64_t dropped() { return g_rings.ring.dropped(); }

void clear() { g_rings.ring.clear(); }

std::uint32_t trigger_mask() {
  return g_trigger_mask.load(std::memory_order_relaxed);
}

void set_trigger_mask(std::uint32_t mask) {
  g_trigger_mask.store(mask, std::memory_order_relaxed);
}

bool trigger_fired() {
  return g_trigger_fired.load(std::memory_order_relaxed);
}

void rearm_trigger() {
  g_trigger_fired.store(false, std::memory_order_relaxed);
}

void set_dump_hook(DumpHook hook) {
  g_dump_hook.store(hook, std::memory_order_relaxed);
}

std::string dump_json(const char* reason) {
  const std::vector<Event> events = drain();
  std::string out;
  out.reserve(128 + events.size() * 160);
  Writer w(out);
  write_header(w, reason, static_cast<std::int64_t>(events.size()));
  for (const Event& ev : events) {
    write_event(w, ev);
    w.str("\n");
  }
  w.flush();
  return out;
}

void append_event_json(std::string& out, const Event& ev) {
  Writer w(out);
  write_event(w, ev);
  w.flush();
}

bool dump_to_file(const char* path, const char* reason) {
  return path != nullptr && metrics::write_file(path, dump_json(reason));
}

void dump_to_fd(int fd, const char* reason) {
  Writer w(fd);
  // Atomic loads only: dropped() in the header, then the rings slot by slot.
  write_header(w, reason, -1);  // count unknown up front on the signal path
  for_each_event([&w](const Event& ev) {
    write_event(w, ev);
    w.str("\n");
  });
  w.flush();
}

void install_crash_handler() {
  static std::atomic<bool> installed{false};
  bool expected = false;
  if (!installed.compare_exchange_strong(expected, true)) return;
  trigger_path();  // latch the env var outside the signal path
  const int sigs[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};
  for (const int sig : sigs) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = crash_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ::sigaction(sig, &sa, nullptr);
  }
}

}  // namespace gsknn::flightrec
