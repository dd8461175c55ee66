// Thread-slot registry (see include/gsknn/common/threads.hpp).
#include "gsknn/common/threads.hpp"

#include <atomic>

namespace gsknn {

namespace {

/// g_held[s] is set while a live thread owns slot s. Claims acquire and
/// releases release, so a slot's next owner sees every write of the one
/// before and can keep updating the slot's storage with plain stores.
std::atomic<bool> g_held[kMaxThreadSlots];
std::atomic<int> g_high_water{0};

constexpr int kExited = -2;
thread_local int t_slot = -1;

struct ReleaseAtExit {
  ~ReleaseAtExit() {
    g_held[t_slot].store(false, std::memory_order_release);
    t_slot = kExited;
  }
};

}  // namespace

int thread_slot() {
  if (t_slot >= 0) return t_slot;
  if (t_slot == kExited) return -1;
  for (int s = 0; s < kMaxThreadSlots; ++s) {
    // Read first: a slotless thread rescans on every record.
    if (g_held[s].load(std::memory_order_relaxed)) continue;
    if (g_held[s].exchange(true, std::memory_order_acquire)) continue;
    int hw = g_high_water.load(std::memory_order_relaxed);
    while (hw <= s && !g_high_water.compare_exchange_weak(hw, s + 1)) {
    }
    thread_local ReleaseAtExit release;  // constructed on the first claim
    t_slot = s;
    return s;
  }
  return -1;
}

int thread_slot_high_water() {
  return g_high_water.load(std::memory_order_acquire);
}

}  // namespace gsknn
