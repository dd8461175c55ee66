// Hardware performance-counter attribution for the telemetry Phase axis.
//
// A PmuGroup wraps one perf_event_open() counter group — cycles,
// instructions, L1D load misses, LLC misses, backend-stall cycles — pinned
// to the calling thread and read with a single read() syscall per snapshot
// (PERF_FORMAT_GROUP). The drivers snapshot the group at the same places
// they read the phase timers, so every KernelProfile can report IPC, cache
// miss rates and bytes/cycle per phase alongside seconds.
//
// Degradation contract (the part that matters in practice): when the
// syscall is denied — kernel.perf_event_paranoid too high, seccomp in a
// container, no PMU virtualized, GSKNN_PMU=0 in the environment — every
// operation becomes a cheap no-op: PmuGroup::ok() is false, read() returns
// false, and the profile simply carries pmu_enabled == false, exactly the
// PR-1 behavior. The first failed open is remembered process-wide so later
// threads do not retry the syscall.
//
// Events that open partially (e.g. stalled-cycles unsupported on the host
// PMU) stay in the group as absent slots reporting zero; event_available()
// tells consumers which columns are real. When the kernel multiplexes the
// group, counts are scaled by time_enabled/time_running, the standard perf
// estimate.
#pragma once

#include <cstdint>

namespace gsknn::telemetry {

/// Counter slots of the fixed event group, in read-back order.
enum class PmuEvent : int {
  kCycles = 0,       ///< PERF_COUNT_HW_CPU_CYCLES
  kInstructions,     ///< PERF_COUNT_HW_INSTRUCTIONS
  kL1dMisses,        ///< L1D read misses (PERF_TYPE_HW_CACHE)
  kLlcMisses,        ///< PERF_COUNT_HW_CACHE_MISSES (last-level)
  kStallCycles,      ///< PERF_COUNT_HW_STALLED_CYCLES_BACKEND (often absent)
  kNumEvents,
};

inline constexpr int kPmuEventCount = static_cast<int>(PmuEvent::kNumEvents);

/// Stable lowercase identifier ("cycles", "instructions", ...) for JSON.
const char* pmu_event_name(PmuEvent e);

/// One snapshot of the group. Values are cumulative since the group was
/// opened; phase attribution works on deltas of two snapshots.
struct PmuCounts {
  std::uint64_t v[kPmuEventCount] = {};

  std::uint64_t operator[](PmuEvent e) const {
    return v[static_cast<int>(e)];
  }
  /// Element-wise this - rhs, clamped at zero (multiplex scaling can make a
  /// later scaled estimate round below an earlier one by a few counts).
  PmuCounts delta_since(const PmuCounts& rhs) const {
    PmuCounts out;
    for (int i = 0; i < kPmuEventCount; ++i) {
      out.v[i] = v[i] >= rhs.v[i] ? v[i] - rhs.v[i] : 0;
    }
    return out;
  }
  /// Element-wise accumulation.
  void accumulate(const PmuCounts& d) {
    for (int i = 0; i < kPmuEventCount; ++i) v[i] += d.v[i];
  }
};

/// One thread's counter group. Not movable or shareable across threads —
/// the events are pinned to the opening thread. Use this_thread() for the
/// lazily-opened thread_local instance the drivers share.
class PmuGroup {
 public:
  /// Opens the group on the calling thread (no-op failure when perf is
  /// unavailable; see the header comment for the degradation contract).
  PmuGroup();
  ~PmuGroup();
  PmuGroup(const PmuGroup&) = delete;
  PmuGroup& operator=(const PmuGroup&) = delete;

  /// True when the group leader opened and counts are being collected.
  bool ok() const { return leader_fd_ >= 0; }

  /// True when slot `e` actually opened on this host's PMU.
  bool event_available(PmuEvent e) const {
    return ok() && fds_[static_cast<int>(e)] >= 0;
  }

  /// Snapshot the group (one syscall). Returns false — leaving `out`
  /// zeroed — when the group is not ok() or the read fails.
  bool read(PmuCounts& out) const;

  /// The calling thread's lazily-constructed group. First use on a thread
  /// pays the open; subsequent uses are a thread_local load.
  static PmuGroup& this_thread();

 private:
  int leader_fd_ = -1;
  int fds_[kPmuEventCount] = {-1, -1, -1, -1, -1};
  int n_open_ = 0;  ///< events actually in the group (read-back length)
};

/// Process-wide availability: true iff a group can be (or has been) opened
/// and GSKNN_PMU=0 is not set. Cheap after the first call.
bool pmu_available();

/// Process-wide count of PmuGroup::read() calls whose counts were
/// extrapolated by the kernel's multiplex scaling (time_running <
/// time_enabled). Non-zero means the PMU columns are estimates, not exact
/// counts; surfaced in the aggregate metrics snapshot and the CLI
/// --profile output so consumers can tell.
std::uint64_t pmu_multiplexed_reads();

}  // namespace gsknn::telemetry
