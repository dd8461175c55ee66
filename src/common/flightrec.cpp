// Flight recorder (see include/gsknn/common/flightrec.hpp).
#include "gsknn/common/flightrec.hpp"

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include "gsknn/common/metrics.hpp"
#include "gsknn/common/threads.hpp"

namespace gsknn::flightrec {

namespace {

const char* const kKindNames[kKindCount] = {
    "call_begin", "call_end",    "retile",       "deadline",     "cancel",
    "pack_evict", "pack_update", "stale_reject", "fault",
    "serve_submit", "serve_fuse", "serve_shed",  "serve_watchdog",
    "serve_breaker",
};

// ---- event rings -----------------------------------------------------------

// An event is five relaxed atomic words. Word 1 packs the discriminants:
//   bits [0,8)   kind
//   bits [8,16)  entry + 1 (0 = none)
//   bits [16,32) status
// Words 3/4 pack the shape as (m << 32) | n and (d << 32) | k.
constexpr int kWordsPerEvent = 5;

struct alignas(64) Ring {
  std::atomic<std::uint64_t> head{0};  ///< events ever written to this ring
  std::atomic<std::uint64_t> words[kRingCapacity][kWordsPerEvent];
};

// One ring per thread slot (gsknn/common/threads.hpp).
Ring g_rings[kMaxThreadSlots];
std::atomic<std::uint64_t> g_no_slot_drops{0};

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

// ---- packing helpers -------------------------------------------------------

inline std::uint64_t pack_meta(Kind kind, int entry, int status) {
  const std::uint64_t e =
      static_cast<std::uint64_t>(entry < 0 ? 0 : (entry & 0x7F) + 1);
  return static_cast<std::uint64_t>(static_cast<int>(kind) & 0xFF) |
         (e << 8) | (static_cast<std::uint64_t>(status & 0xFFFF) << 16);
}

inline std::uint64_t pack_pair(std::uint32_t hi, std::uint32_t lo) {
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

Event decode(const std::uint64_t w[kWordsPerEvent], std::uint64_t seq,
             int slot) {
  Event ev;
  ev.t_ns = w[0];
  ev.seq = seq;
  ev.thread_slot = slot;
  const std::uint64_t meta = w[1];
  int kind = static_cast<int>(meta & 0xFF);
  if (kind < 0 || kind >= kKindCount) kind = 0;  // torn read: clamp
  ev.kind = static_cast<Kind>(kind);
  const int e = static_cast<int>((meta >> 8) & 0xFF);
  ev.entry = e == 0 ? -1 : e - 1;
  ev.status = static_cast<int>((meta >> 16) & 0xFFFF);
  ev.value = w[2];
  ev.m = static_cast<std::uint32_t>(w[3] >> 32);
  ev.n = static_cast<std::uint32_t>(w[3]);
  ev.d = static_cast<std::uint32_t>(w[4] >> 32);
  ev.k = static_cast<std::uint32_t>(w[4]);
  return ev;
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

struct FdWriter {
  int fd;
  char buf[512];
  std::size_t len = 0;

  void flush() {
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

void write_event(FdWriter& w, const Event& ev) {
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
  w.str("}\n");
}

/// Drain one ring without allocating (signal path): calls `fn` for each
/// retained event, oldest first.
template <typename Fn>
void drain_ring(int slot, Fn&& fn) {
  const Ring& r = g_rings[slot];
  const std::uint64_t head = r.head.load(std::memory_order_acquire);
  const std::uint64_t avail =
      head < kRingCapacity ? head : static_cast<std::uint64_t>(kRingCapacity);
  for (std::uint64_t i = head - avail; i < head; ++i) {
    const std::size_t idx = static_cast<std::size_t>(i % kRingCapacity);
    std::uint64_t w[kWordsPerEvent];
    for (int j = 0; j < kWordsPerEvent; ++j) {
      w[j] = r.words[idx][j].load(std::memory_order_relaxed);
    }
    fn(decode(w, i, slot));
  }
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
  const int slot = thread_slot();
  if (slot < 0) {
    g_no_slot_drops.fetch_add(1, std::memory_order_relaxed);
    if (kind == Kind::kCallEnd) maybe_trigger(status);
    return;
  }
  Ring& r = g_rings[slot];
  const std::uint64_t head = r.head.load(std::memory_order_relaxed);
  const std::size_t idx = static_cast<std::size_t>(head % kRingCapacity);
  auto* w = r.words[idx];
  w[0].store(metrics::now_ns(), std::memory_order_relaxed);
  w[1].store(pack_meta(kind, entry, status), std::memory_order_relaxed);
  w[2].store(value, std::memory_order_relaxed);
  w[3].store(pack_pair(static_cast<std::uint32_t>(m < 0 ? 0 : m),
                       static_cast<std::uint32_t>(n < 0 ? 0 : n)),
             std::memory_order_relaxed);
  w[4].store(pack_pair(static_cast<std::uint32_t>(d < 0 ? 0 : d),
                       static_cast<std::uint32_t>(k < 0 ? 0 : k)),
             std::memory_order_relaxed);
  r.head.store(head + 1, std::memory_order_release);
  if (kind == Kind::kCallEnd) maybe_trigger(status);
}

std::vector<Event> drain() {
  std::vector<Event> out;
  out.reserve(256);
  for (int s = 0; s < thread_slot_high_water(); ++s) {
    drain_ring(s, [&out](const Event& ev) { out.push_back(ev); });
  }
  std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
    if (a.thread_slot != b.thread_slot) return a.thread_slot < b.thread_slot;
    return a.seq < b.seq;
  });
  return out;
}

std::uint64_t dropped() {
  std::uint64_t total = g_no_slot_drops.load(std::memory_order_relaxed);
  for (int s = 0; s < thread_slot_high_water(); ++s) {
    const std::uint64_t head =
        g_rings[s].head.load(std::memory_order_relaxed);
    if (head > kRingCapacity) total += head - kRingCapacity;
  }
  return total;
}

void clear() {
  for (int s = 0; s < thread_slot_high_water(); ++s) {
    g_rings[s].head.store(0, std::memory_order_relaxed);
  }
  g_no_slot_drops.store(0, std::memory_order_relaxed);
}

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
  char head[192];
  std::snprintf(head, sizeof(head),
                "{\"flightrec_version\":1,\"reason\":\"%s\",\"dropped\":%llu,"
                "\"events\":%zu}\n",
                reason != nullptr ? reason : "on_demand",
                static_cast<unsigned long long>(dropped()), events.size());
  out += head;
  char line[320];
  for (const Event& ev : events) {
    char entry_buf[40];
    if (ev.entry < 0) {
      std::snprintf(entry_buf, sizeof(entry_buf), "null");
    } else {
      std::snprintf(entry_buf, sizeof(entry_buf), "\"%s\"",
                    metrics::entry_point_name(
                        static_cast<metrics::EntryPoint>(ev.entry)));
    }
    std::snprintf(
        line, sizeof(line),
        "{\"t_ns\":%llu,\"seq\":%llu,\"thread\":%d,\"kind\":\"%s\","
        "\"entry\":%s,\"status\":\"%s\",\"value\":%llu,"
        "\"m\":%u,\"n\":%u,\"d\":%u,\"k\":%u}\n",
        static_cast<unsigned long long>(ev.t_ns),
        static_cast<unsigned long long>(ev.seq), ev.thread_slot,
        kind_name(ev.kind), entry_buf, metrics::status_label(ev.status),
        static_cast<unsigned long long>(ev.value), ev.m, ev.n, ev.d, ev.k);
    out += line;
  }
  return out;
}

bool dump_to_file(const char* path, const char* reason) {
  if (path == nullptr) return false;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const std::string text = dump_json(reason);
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  const bool ok = n == text.size() && std::fclose(f) == 0;
  if (!ok && n != text.size()) std::fclose(f);
  return ok;
}

void dump_to_fd(int fd, const char* reason) {
  FdWriter w{fd, {}};
  // Header. dropped() and the per-ring drains below only use atomic loads.
  w.str("{\"flightrec_version\":1,\"reason\":\"");
  w.str(reason != nullptr ? reason : "on_demand");
  w.str("\",\"dropped\":");
  w.u64(dropped());
  w.str(",\"events\":-1}\n");  // count unknown up front on the signal path
  for (int s = 0; s < thread_slot_high_water(); ++s) {
    drain_ring(s, [&w](const Event& ev) { write_event(w, ev); });
  }
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
