// PackedRefs — a reusable packed reference-panel cache for the serving
// regime (ROADMAP item 2; paper §2.4 motivation).
//
// The six-loop kernel re-packs its Rc panel on every invocation: the right
// trade for a one-shot join, pure waste when the same reference set is
// queried over and over. PackedRefs splits the kernel's implicit
// plan / pack / compute pipeline at the pack seam: it captures the pack
// *geometry* once (sliver width n_r, depth block d_c, panel block n_c and
// the SIMD level — per precision × norm layout), packs each n_c-wide block
// of references into the paper's Z-shape sliver format on first touch, and
// hands resident panels straight to the kernel's compute phase on every
// later query — zero packed bytes moved on warm traffic, results bitwise
// identical to the cold path (the panels are byte-identical; only who owns
// the buffer changes).
//
// Layout classes. A cache serves exactly the query norms whose cold path
// would have produced byte-identical panels:
//   * kL2Sq / kCosine  — plain panels + packed squared norms;
//   * kL1 / kLp        — plain panels (a norms-class cache also serves
//                        these: the norms are simply not read);
//   * kLInf            — NaN-poisoned panels (see src/core/pack.hpp), its
//                        own class in both directions.
// A layout-incompatible query fails with Status::kUnsupported.
//
// Budget + eviction. `Options::budget_bytes` caps resident panel bytes
// (KnnConfig::max_workspace_bytes semantics extended to cached state, PR 5);
// over-budget blocks are evicted least-recently-used, pinned blocks (in use
// by a running query) excepted. A budget below one block fails build() with
// kResourceExhausted up front.
//
// Incremental updates. insert()/erase() edit the reference id list with
// block granularity: only the panel blocks whose id range changed are
// invalidated and re-packed on next touch; every other resident block is
// reused as-is. Each update bumps epoch(); a query that passes the epoch it
// captured fails with Status::kStale when an update slipped in between —
// the optimistic-concurrency handshake for servers.
//
// Concurrency. Updates MAY run concurrently with queries (the serving
// runtime's mutate-while-query regime): every query resolves the epoch it
// runs under at entry (snapshot()), every block pin re-validates that epoch
// under the cache lock, and invalidation defers buffer frees past any
// outstanding lease — so a racing update yields a clean Status::kStale,
// never a kernel computing over mixed-epoch panels or freed memory. The id
// list is copy-on-write: a query holds a shared snapshot of the list it
// validated against, immune to reallocation by a concurrent insert().
// (ids() returns an unowned span of the *current* list and is the one
// accessor that still requires external synchronization against updates;
// concurrent callers use snapshot().)
//
// Observability: per-object stats() plus process-wide metrics counters
// pack_hits / pack_misses / pack_evictions / cache_bytes
// (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "gsknn/common/aligned.hpp"
#include "gsknn/common/arch.hpp"
#include "gsknn/core/knn.hpp"

namespace gsknn {

/// "Don't check the epoch" sentinel for the packed query entry points.
inline constexpr std::uint64_t kEpochAny = ~0ull;

template <typename T>
class PackedRefsT {
 public:
  struct Options {
    /// Layout norm the panels are packed for (see the layout classes above).
    Norm norm = Norm::kL2Sq;
    /// Pin the pack geometry (tests/tuning); mr/nr must match a micro-kernel
    /// exactly like KnnConfig::blocking. Default: arch-derived.
    std::optional<BlockingParams> blocking;
    /// Resident-panel byte cap; 0 = unlimited. LRU eviction above it.
    std::size_t budget_bytes = 0;
    /// Pack every block at build() instead of on first touch.
    bool eager = false;
  };

  struct Stats {
    std::uint64_t hits = 0;        ///< block acquisitions served resident
    std::uint64_t misses = 0;      ///< block acquisitions that packed
    std::uint64_t evictions = 0;   ///< blocks dropped under the budget
    std::uint64_t bytes_packed = 0;  ///< cumulative bytes packed (cold+repack)
    std::size_t resident_bytes = 0;  ///< panel bytes currently cached
    int resident_blocks = 0;
  };

  PackedRefsT() = default;
  PackedRefsT(const PackedRefsT&) = delete;
  PackedRefsT& operator=(const PackedRefsT&) = delete;

  /// Capture `ridx` (copied) over `X` (referenced; must outlive this object)
  /// and resolve the pack geometry. Validates ids and the blocking override;
  /// packs eagerly when opt.eager. Rebuilding over a live object is allowed
  /// and drops all cached state.
  Status build(const PointTableT<T>& X, std::span<const int> ridx,
               const Options& opt = {});

  /// Append reference points (global ids into the same table). Only the
  /// tail block(s) spanning the old/new boundary are re-packed; bumps
  /// epoch(). kBadIndex on out-of-range ids, kInvalidArgument before build().
  Status insert(std::span<const int> ids);

  /// Remove the first occurrence of each id (swap-remove with the last
  /// element, so only the two touched blocks re-pack); bumps epoch().
  /// kBadIndex when an id is not present.
  Status erase(std::span<const int> ids);

  /// Monotone generation counter: 0 after build(), +1 per insert()/erase().
  std::uint64_t epoch() const;

  /// Atomic (id list, epoch) pair captured under the cache lock. The shared
  /// pointer keeps the list alive across concurrent copy-on-write updates,
  /// so a query can validate ids and pin blocks against one consistent
  /// generation even while mutators run.
  struct Snapshot {
    std::shared_ptr<const std::vector<int>> ids;
    std::uint64_t epoch = 0;
  };
  Snapshot snapshot() const;

  int size() const;
  /// Unowned view of the current id list. Requires external synchronization
  /// against insert()/erase() (which swap the list out from under the span);
  /// concurrent readers use snapshot() instead.
  std::span<const int> ids() const;
  const PointTableT<T>* table() const { return X_; }
  bool built() const { return X_ != nullptr; }

  Stats stats() const;

  // ---- geometry (driver integration; stable after build()) ---------------
  const BlockingParams& blocking() const { return bp_; }
  SimdLevel level() const { return level_; }
  Norm layout_norm() const { return norm_; }
  bool has_norms() const { return needs_norms_; }
  bool poisoned() const { return poison_; }
  int num_blocks() const;
  /// True when the given query norm can be served byte-identically.
  bool layout_compatible(Norm query_norm) const;

  // ---- block leases (driver integration) ---------------------------------
  //
  // The kernel's compute phase pins one block at a time: acquire() packs the
  // block if it is not resident (a miss — Lease::bytes_packed reports the
  // bytes moved, 0 on a hit), bumps its LRU stamp and pin count, and returns
  // pointers that stay valid until the matching release(). Depth block
  // p0 ∈ [0, d) starts at panel + nbpad·p0 (blocks are laid depth-major,
  // exactly the cold path's per-(jc, pc) slabs concatenated).
  //
  // `expected_epoch` other than kEpochAny re-validates the caller's pinned
  // generation under the cache lock — the per-block half of the stale
  // handshake. Without it, an insert()/erase() landing between a call's
  // entry epoch check and a later block pin could hand that call a
  // just-repacked (new-generation) panel next to old-generation ones.
  // Leases hold shared ownership of their block's buffers, so a concurrent
  // invalidation defers the free until the last lease releases.
  struct Lease {
    const T* panel = nullptr;
    const T* norms = nullptr;  ///< nbpad packed squared norms; null w/o norms
    int nb = 0;                ///< live references in this block
    int nbpad = 0;             ///< nb rounded up to the sliver width
    std::uint64_t bytes_packed = 0;  ///< 0 on a warm hit
    std::shared_ptr<const void> hold;  ///< keeps the panel alive (see above)
  };
  Status acquire(int block, Lease& lease,
                 std::uint64_t expected_epoch = kEpochAny);
  void release(int block);

 private:
  /// Buffer pair shared between a resident block and outstanding leases;
  /// invalidation drops the block's reference, leases keep theirs.
  struct BlockData {
    AlignedBuffer<T> panel;
    AlignedBuffer<T> norms;
  };
  struct Block {
    std::shared_ptr<BlockData> data;
    std::size_t bytes = 0;  ///< accounted size while resident
    bool resident = false;
    std::uint64_t lru = 0;
    int pins = 0;
  };

  void block_range(int b, int& j0, int& nb) const;
  std::size_t block_bytes(int nb) const;
  Status pack_block_locked(int b);
  void invalidate_block_locked(int b);
  void evict_over_budget_locked(int protect);

  const PointTableT<T>* X_ = nullptr;
  /// Copy-on-write id list (swapped whole under mu_ by insert()/erase());
  /// snapshot holders keep superseded generations alive.
  std::shared_ptr<const std::vector<int>> ids_;
  BlockingParams bp_{};
  int tnr_ = 0;
  SimdLevel level_ = SimdLevel::kScalar;
  Norm norm_ = Norm::kL2Sq;
  bool needs_norms_ = false;
  bool poison_ = false;
  std::size_t budget_ = 0;
  std::uint64_t epoch_ = 0;

  // Residency state, guarded by mu_ (packing itself runs under the lock:
  // concurrent misses on distinct blocks serialize, which keeps the LRU
  // and byte accounting trivially consistent).
  mutable std::mutex mu_;
  std::vector<Block> blocks_;
  std::vector<unsigned char> bad_;  ///< per-position non-finite flags (ℓ∞)
  bool any_bad_ = false;
  std::uint64_t tick_ = 0;
  std::size_t resident_bytes_ = 0;
  Stats st_;
};

using PackedRefs = PackedRefsT<double>;
using PackedRefsF = PackedRefsT<float>;

/// Warm-path kernel: identical semantics to knn_kernel(X, qidx, refs.ids(),
/// ...) — bitwise-identical rows — except the reference panels come from the
/// cache (0 packed reference bytes on resident blocks). `expected_epoch`
/// other than kEpochAny makes the call fail with Status::kStale when the
/// cache's epoch differs at entry (heap rows untouched, every row of the
/// call flagged incomplete — an entry reject never masquerades as a
/// finished empty result). kEpochAny
/// resolves to the epoch observed at entry, so every call computes over one
/// consistent generation either way; an update racing the call surfaces as
/// kStale with the rows the kernel could not finish flagged incomplete
/// (row_complete() false), never as mixed-generation results. The status
/// overloads return kStale/kUnsupported instead of throwing.
void knn_kernel(PackedRefs& refs, std::span<const int> qidx,
                NeighborTable& result, const KnnConfig& cfg = {},
                std::span<const int> result_rows = {},
                std::uint64_t expected_epoch = kEpochAny);
void knn_kernel(PackedRefsF& refs, std::span<const int> qidx,
                NeighborTableF& result, const KnnConfig& cfg = {},
                std::span<const int> result_rows = {},
                std::uint64_t expected_epoch = kEpochAny);
Status knn_kernel_status(PackedRefs& refs, std::span<const int> qidx,
                         NeighborTable& result, const KnnConfig& cfg = {},
                         std::span<const int> result_rows = {},
                         std::uint64_t expected_epoch = kEpochAny);
Status knn_kernel_status(PackedRefsF& refs, std::span<const int> qidx,
                         NeighborTableF& result, const KnnConfig& cfg = {},
                         std::span<const int> result_rows = {},
                         std::uint64_t expected_epoch = kEpochAny);

}  // namespace gsknn
