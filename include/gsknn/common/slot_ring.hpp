// gsknn::SlotRing — the one per-thread record ring under the flight
// recorder (flightrec.hpp) and TraceSink (trace.hpp); each keeps its own
// record layout and export. Per thread slot (threads.hpp) a fixed-capacity
// ring of W relaxed atomic words per record, allocated by the slot's owner
// on its first record with plain `new (std::nothrow)` (not the
// fault-injected aligned allocator) and kept for the slot's next owner. The
// owner stores a record's words, then publishes the head with a release
// store, so a drain beside live writers is race-free; a record overwritten
// mid-read can still tear logically (the usual flight-recorder contract). A
// full ring overwrites its oldest record. Dropped = overwrites (from the
// heads) + records that found no slot or storage. Draining allocates
// nothing and takes no lock, so a signal handler can drain.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "gsknn/common/threads.hpp"

namespace gsknn {

template <int W>
class SlotRing {
  /// A slot's storage is the head (records ever written), then capacity_
  /// records of W words.
  using Word = std::atomic<std::uint64_t>;

 public:
  using Record = std::array<std::uint64_t, W>;

  /// constexpr, so a global ring is constant-initialized.
  constexpr explicit SlotRing(std::size_t capacity) : capacity_(capacity) {}
  ~SlotRing() {
    for (auto& s : slots_) delete[] s.load(std::memory_order_relaxed);
  }
  SlotRing(const SlotRing&) = delete;
  SlotRing& operator=(const SlotRing&) = delete;

  /// Append one record from the calling thread. False when that cost a
  /// record: this one was dropped, or it overwrote the oldest.
  bool push(const Record& rec) noexcept {
    const int slot = thread_slot();
    Word* s = slot < 0 ? nullptr : slots_[slot].load(std::memory_order_relaxed);
    if (slot >= 0 && s == nullptr) {
      // Only a slot's owner stores its pointer, and the registry orders one
      // owner's writes before the next owner's reads.
      s = new (std::nothrow) Word[1 + capacity_ * W]();
      slots_[slot].store(s, std::memory_order_release);
    }
    if (s == nullptr) {
      unplaced_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const std::uint64_t head = s[0].load(std::memory_order_relaxed);
    Word* w = s + 1 + index(head) * W;
    for (int j = 0; j < W; ++j) w[j].store(rec[j], std::memory_order_relaxed);
    s[0].store(head + 1, std::memory_order_release);
    return head < capacity_;
  }

  /// fn(slot) for each slot below the registry's high-water mark that has
  /// storage, ascending.
  template <typename Fn>
  void for_each_slot(Fn&& fn) const {
    for (int slot = 0; slot < thread_slot_high_water(); ++slot) {
      if (slots_[slot].load(std::memory_order_acquire) != nullptr) fn(slot);
    }
  }

  /// fn(seq, record) for each record `slot` (one for_each_slot named)
  /// retains, oldest first; seq counts the slot's records since clear().
  template <typename Fn>
  void drain_slot(int slot, Fn&& fn) const {
    const Word* s = slots_[slot].load(std::memory_order_acquire);
    const std::uint64_t head = s[0].load(std::memory_order_acquire);
    for (std::uint64_t i = head - std::min(head, capacity_); i < head; ++i) {
      const Word* w = s + 1 + index(i) * W;
      Record rec{};
      for (int j = 0; j < W; ++j) rec[j] = w[j].load(std::memory_order_relaxed);
      fn(i, rec);
    }
  }

  int slots_used() const {
    int n = 0;
    for_each_slot([&n](int) { ++n; });
    return n;
  }
  std::uint64_t retained() const {
    std::uint64_t n = 0;
    for_each_slot([&](int s) { n += std::min(head(s), capacity_); });
    return n;
  }
  std::uint64_t dropped() const {
    std::uint64_t n = unplaced_.load(std::memory_order_relaxed);
    for_each_slot([&](int s) { n += std::max(head(s), capacity_) - capacity_; });
    return n;
  }

  /// Forget every record and zero dropped(); slots keep their storage. May
  /// race push().
  void clear() {
    for_each_slot([this](int s) { slots_[s].load()[0].store(0); });
    unplaced_.store(0, std::memory_order_relaxed);
  }

 private:
  /// Position of a slot's record i. A mask when the capacity is a power of
  /// two (the flight recorder's and TraceSink's default): a 64-bit division
  /// made every flight-recorder record ~15 ns slower.
  std::uint64_t index(std::uint64_t i) const {
    return (capacity_ & (capacity_ - 1)) == 0 ? i & (capacity_ - 1)
                                              : i % capacity_;
  }

  std::uint64_t head(int slot) const {
    return slots_[slot].load()[0].load(std::memory_order_relaxed);
  }

  std::atomic<Word*> slots_[kMaxThreadSlots] = {};
  std::atomic<std::uint64_t> unplaced_{0};
  std::uint64_t capacity_;
};

}  // namespace gsknn
