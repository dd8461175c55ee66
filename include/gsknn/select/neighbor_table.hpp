// NeighborTable — the kernel's output object: the paper's (D, N) pair of
// m × k matrices holding, per query row, the current k nearest squared
// distances and reference ids, each row organized as a binary max-heap
// (heap.hpp).
//
// Rows are initialized to +inf/-1 sentinels, so a freshly created table acts
// as an "empty" neighbor list whose root is +inf (every candidate accepted)
// and a table carried across solver iterations acts as a pruning filter.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "gsknn/common/aligned.hpp"
#include "gsknn/select/heap.hpp"

namespace gsknn {

/// Append-only open-addressing set of point ids, one per neighbor row, used
/// to deduplicate candidates in O(1) instead of an O(k) row scan.
///
/// It is append-only on purpose: entries are never removed when their id is
/// evicted from the heap, and that is *sound* — a heap root never increases,
/// so a re-offered evicted id (whose distance to this query is a fixed
/// number ≥ the root at its eviction) can never pass the root compare again.
/// Stale entries therefore never reject a candidate the heap would accept.
/// Var#5's merge (core::row_select) adds every survivor of its final filter.
class RowIdSet {
 public:
  /// Prepare for ~expected ids; clears existing contents.
  void init(int expected) {
    std::size_t cap = 16;
    while (cap < static_cast<std::size_t>(expected) * 2) cap *= 2;
    slots_.assign(cap, -1);
    count_ = 0;
  }

  bool contains(int id) const {
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t h = hash(id);; ++h) {
      const int v = slots_[h & mask];
      if (v == -1) return false;
      if (v == id) return true;
    }
  }

  /// Returns true when `id` was newly added (absent before).
  bool insert_if_absent(int id) {
    if (slots_.empty()) init(16);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t h = hash(id);; ++h) {
      int& v = slots_[h & mask];
      if (v == id) return false;
      if (v == -1) {
        v = id;
        if (++count_ * 10 > static_cast<int>(slots_.size()) * 7) grow();
        return true;
      }
    }
  }

  int size() const { return count_; }

 private:
  static std::size_t hash(int id) {
    auto z = static_cast<std::uint64_t>(static_cast<std::uint32_t>(id));
    z = (z ^ (z >> 16)) * 0x45D9F3B5ull;
    z = (z ^ (z >> 13)) * 0xC2B2AE35ull;
    return static_cast<std::size_t>(z ^ (z >> 16));
  }

  void grow() {
    std::vector<int> old;
    old.swap(slots_);
    slots_.assign(old.size() * 2, -1);
    count_ = 0;
    for (int v : old) {
      if (v != -1) insert_if_absent(v);
    }
  }

  std::vector<int> slots_;
  int count_ = 0;
};

/// Templated on the distance scalar T (double for the paper-faithful path,
/// float for the single-precision extension). Use the NeighborTable /
/// NeighborTableF aliases below.
template <typename T>
class NeighborTableT {
 public:
  NeighborTableT() = default;

  NeighborTableT(int m, int k) { resize(m, k); }

  void resize(int m, int k) {
    assert(m >= 0 && k > 0);
    m_ = m;
    k_ = k;
    // Pad the row stride to a cache-line multiple of doubles so rows never
    // false-share across threads.
    stride_ = static_cast<int>(round_up(static_cast<std::size_t>(k), 8));
    dist_.reset(static_cast<std::size_t>(m) * stride_);
    id_.reset(static_cast<std::size_t>(m) * stride_);
    idsets_.clear();  // re-enable after resize if wanted
    // Preallocated here (not lazily) so concurrent workers marking disjoint
    // rows under cancellation touch distinct bytes of a fixed-size vector —
    // no allocation, no race.
    incomplete_.assign(static_cast<std::size_t>(m), 0);
    reset();
  }

  /// Re-initialize every row to the empty (+inf) state. The entire padded
  /// stride is filled with sentinels — the pad slots are read by the dedup
  /// membership scan, so they must never contain stale ids.
  void reset() {
    for (int i = 0; i < m_; ++i) {
      T* d = row_dists(i);
      int* x = row_ids(i);
      for (int s = 0; s < stride_; ++s) {
        d[s] = std::numeric_limits<T>::infinity();
        x[s] = heap::kNoId;
      }
    }
    for (auto& s : idsets_) s.init(k_);
    if (!incomplete_.empty()) {
      std::fill(incomplete_.begin(), incomplete_.end(),
                static_cast<unsigned char>(0));
    }
  }

  int rows() const { return m_; }
  int k() const { return k_; }
  int row_stride() const { return stride_; }

  T* row_dists(int i) {
    assert(i >= 0 && i < m_);
    return dist_.data() + static_cast<std::size_t>(i) * stride_;
  }
  const T* row_dists(int i) const {
    assert(i >= 0 && i < m_);
    return dist_.data() + static_cast<std::size_t>(i) * stride_;
  }
  int* row_ids(int i) {
    assert(i >= 0 && i < m_);
    return id_.data() + static_cast<std::size_t>(i) * stride_;
  }
  const int* row_ids(int i) const {
    assert(i >= 0 && i < m_);
    return id_.data() + static_cast<std::size_t>(i) * stride_;
  }

  /// Current k-th nearest distance of row i (the heap root, slot 0).
  T row_root(int i) const { return row_dists(i)[0]; }

  /// O(1)-reject candidate insertion.
  void try_insert(int row, T d, int x) {
    heap::binary_try_insert(row_dists(row), row_ids(row), k_, d, x);
  }

  /// Candidate insertion that refuses ids already present in the row. Needed
  /// when the same reference can be offered twice (e.g. by overlapping
  /// leaves across randomized-tree iterations). The membership check runs
  /// only after the root check passes, so the common rejected case stays
  /// O(1) either way; with enable_dedup_index() the accepted case is O(1)
  /// too (instead of an O(k) row scan).
  void try_insert_unique(int row, T d, int x) {
    // Same accept rule as try_insert (lexicographic (d, id), finite only —
    // `!(d < root)` alone would let NaN through to the dedup bookkeeping).
    if (!heap::pair_accepts(d, x, row_dists(row)[0], row_ids(row)[0])) return;
    if (!idsets_.empty()) {
      if (!idsets_[static_cast<std::size_t>(row)].insert_if_absent(x)) return;
    } else {
      const int* ids = row_ids(row);
      for (int s = 0; s < stride_; ++s) {
        if (ids[s] == x) return;
      }
    }
    try_insert(row, d, x);
  }

  /// Attach per-row id-set indexes (O(1) dedup). Call on a fresh or reset()
  /// table, before any dedup insertions.
  void enable_dedup_index() {
    idsets_.resize(static_cast<std::size_t>(m_));
    for (auto& s : idsets_) s.init(k_);
  }

  bool has_dedup_index() const { return !idsets_.empty(); }

  /// The row's id-set, or nullptr when the index is not enabled.
  RowIdSet* row_idset(int i) {
    return idsets_.empty() ? nullptr : &idsets_[static_cast<std::size_t>(i)];
  }

  /// Row contents in ascending (distance, id) order, non-finite slots
  /// dropped — with fewer than k candidates seen (k > n), the (+inf, −1)
  /// sentinels sort after every real entry and are omitted, so the returned
  /// vector's size is the number of real neighbors. For inspection/tests —
  /// O(k log k).
  std::vector<std::pair<T, int>> sorted_row(int i) const {
    std::vector<std::pair<T, int>> out;
    out.reserve(static_cast<std::size_t>(k_));
    const T* d = row_dists(i);
    const int* x = row_ids(i);
    for (int j = 0; j < k_; ++j) {
      if (std::isfinite(d[j])) out.emplace_back(d[j], x[j]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Per-query completion state under deadlines/cancellation
  /// (docs/ROBUSTNESS.md). A row is complete when every reference candidate
  /// of the interrupted call was offered to it; an incomplete row still
  /// holds a valid heap of the candidates it did see. Kernels returning
  /// kDeadlineExceeded/kCancelled flag the rows they could not finish; a
  /// later kOk call over the same rows re-marks them complete (tables — and
  /// cancel tokens — are reusable after an interrupted call).
  bool row_complete(int i) const {
    assert(i >= 0 && i < m_);
    return incomplete_[static_cast<std::size_t>(i)] == 0;
  }

  void mark_row_incomplete(int i) {
    assert(i >= 0 && i < m_);
    incomplete_[static_cast<std::size_t>(i)] = 1;
  }

  void mark_row_complete(int i) {
    assert(i >= 0 && i < m_);
    incomplete_[static_cast<std::size_t>(i)] = 0;
  }

  bool all_rows_complete() const {
    for (unsigned char f : incomplete_) {
      if (f != 0) return false;
    }
    return true;
  }

  /// True iff every row satisfies its heap invariant (tests).
  bool all_rows_are_heaps() const {
    for (int i = 0; i < m_; ++i) {
      if (!heap::binary_is_heap(row_dists(i), k_)) return false;
    }
    return true;
  }

 private:
  int m_ = 0;
  int k_ = 0;
  int stride_ = 0;
  AlignedBuffer<T> dist_;
  AlignedBuffer<int> id_;
  std::vector<RowIdSet> idsets_;  ///< empty unless enable_dedup_index()
  std::vector<unsigned char> incomplete_;  ///< sized m by resize(); 1 = row
                                           ///< missed candidates (see
                                           ///< row_complete)
};

/// The paper-faithful double-precision table and its float sibling.
using NeighborTable = NeighborTableT<double>;
using NeighborTableF = NeighborTableT<float>;

}  // namespace gsknn
