// PackedRefs implementation (see include/gsknn/core/packed_refs.hpp).
//
// Invariant that carries the whole bitwise-identity claim: a resident block
// holds exactly the bytes the cold driver's per-(jc, pc) pack bracket would
// have produced for the same geometry, concatenated depth-major — each depth
// slab starts at panel + nbpad·pc because every preceding full slab holds
// nbpad·dc values. pack_block_locked therefore reuses the driver's own
// pack_points_rt / poison_packed / pack_norms helpers verbatim; there is
// no second packing code path to drift.
#include "gsknn/core/packed_refs.hpp"

#include <algorithm>
#include <cassert>
#include <new>
#include <unordered_map>

#include "gsknn/common/flightrec.hpp"
#include "gsknn/common/macros.hpp"
#include "gsknn/common/metrics.hpp"
#include "micro.hpp"
#include "pack.hpp"

namespace gsknn {

namespace {

/// Scan one point for a non-finite coordinate (the per-id increment of
/// core::scan_nonfinite, used by insert()).
template <typename T>
unsigned char point_nonfinite(const PointTableT<T>& X, int id) {
  const T* p = X.col(id);
  const int d = X.dim();
  for (int r = 0; r < d; ++r) {
    if (!std::isfinite(p[r])) return 1;
  }
  return 0;
}

}  // namespace

template <typename T>
Status PackedRefsT<T>::build(const PointTableT<T>& X, std::span<const int> ridx,
                             const Options& opt) {
  // Resolve the pack geometry exactly as the cold driver would for this
  // norm: same micro-kernel dispatch, same blocking derivation, same
  // explicit-blocking validation (a mismatched override is kBadConfig).
  KnnConfig cfg;
  cfg.norm = opt.norm;
  cfg.blocking = opt.blocking;
  core::MicroKernelT<T> mk;
  BlockingParams bp;
  SimdLevel chosen = cpu_features().best_level();
  try {
    core::resolve_kernel_and_blocking<T>(cpu_features().best_level(), cfg, mk,
                                         bp, chosen);
  } catch (const StatusError& e) {
    return e.status();
  }

  const int table_n = X.size();
  for (const int id : ridx) {
    if (id < 0 || id >= table_n) return Status::kBadIndex;
  }

  // A budget that cannot hold even one block would make every acquire fail;
  // reject it up front, before any state is dropped.
  const int n = static_cast<int>(ridx.size());
  if (opt.budget_bytes != 0 && n > 0) {
    const int nb0 = n < bp.nc ? n : bp.nc;
    const std::size_t nbpad0 = round_up(static_cast<std::size_t>(nb0),
                                        static_cast<std::size_t>(mk.nr));
    std::size_t bytes0 = nbpad0 * static_cast<std::size_t>(X.dim()) * sizeof(T);
    if (opt.norm == Norm::kL2Sq || opt.norm == Norm::kCosine) {
      bytes0 += nbpad0 * sizeof(T);
    }
    if (bytes0 > opt.budget_bytes) return Status::kResourceExhausted;
  }

  std::lock_guard<std::mutex> lk(mu_);
  X_ = &X;
  ids_ = std::make_shared<const std::vector<int>>(ridx.begin(), ridx.end());
  bp_ = bp;
  tnr_ = mk.nr;
  level_ = chosen;
  norm_ = opt.norm;
  needs_norms_ = (opt.norm == Norm::kL2Sq || opt.norm == Norm::kCosine);
  poison_ = (opt.norm == Norm::kLInf);
  budget_ = opt.budget_bytes;
  epoch_ = 0;
  blocks_.clear();
  const int nblocks =
      n > 0 ? static_cast<int>(ceil_div(static_cast<std::size_t>(n),
                                        static_cast<std::size_t>(bp_.nc)))
            : 0;
  blocks_.resize(static_cast<std::size_t>(nblocks));
  bad_.clear();
  any_bad_ = false;
  tick_ = 0;
  resident_bytes_ = 0;
  st_ = Stats{};
  if (poison_) {
    core::scan_nonfinite(X, ids_->data(), n, bad_, any_bad_);
  }
  if (opt.eager) {
    for (int b = 0; b < nblocks; ++b) {
      const Status s = pack_block_locked(b);
      if (s != Status::kOk) return s;
      evict_over_budget_locked(b);
    }
  }
  return Status::kOk;
}

template <typename T>
Status PackedRefsT<T>::insert(std::span<const int> ids) {
  if (!built()) return Status::kInvalidArgument;
  const int table_n = X_->size();
  for (const int id : ids) {
    if (id < 0 || id >= table_n) return Status::kBadIndex;
  }
  std::lock_guard<std::mutex> lk(mu_);
  const int old_n = static_cast<int>(ids_->size());
  // Copy-on-write: concurrent queries hold snapshots of the old list, so
  // the mutation builds a fresh vector and swaps it in whole (never
  // reallocates a list a reader may be walking).
  auto next = std::make_shared<std::vector<int>>(*ids_);
  next->insert(next->end(), ids.begin(), ids.end());
  ids_ = std::move(next);
  if (poison_) {
    for (const int id : ids) {
      const unsigned char flag = point_nonfinite(*X_, id);
      bad_.push_back(flag);
      any_bad_ = any_bad_ || flag != 0;
    }
  }
  // Only the block spanning the old/new boundary changes contents; blocks
  // wholly past old_n are brand new (never resident), earlier blocks are
  // untouched and stay resident.
  if (old_n % bp_.nc != 0) {
    invalidate_block_locked((old_n - 1) / bp_.nc);
  }
  const int nblocks = static_cast<int>(
      ceil_div(ids_->size(), static_cast<std::size_t>(bp_.nc)));
  blocks_.resize(static_cast<std::size_t>(nblocks));
  ++epoch_;
  flightrec::record(flightrec::Kind::kPackUpdate, -1, 0, epoch_, 0,
                    static_cast<int>(ids_->size()));
  return Status::kOk;
}

template <typename T>
Status PackedRefsT<T>::erase(std::span<const int> ids) {
  if (!built()) return Status::kInvalidArgument;
  std::lock_guard<std::mutex> lk(mu_);
  // All-or-nothing validation (multiset containment — ids may legitimately
  // repeat both in the request and in the reference list), so a kBadIndex
  // never leaves a half-applied update behind.
  {
    std::unordered_map<int, int> need;
    for (const int id : ids) ++need[id];
    if (!need.empty()) {
      for (const int id : *ids_) {
        auto it = need.find(id);
        if (it != need.end() && it->second > 0) --it->second;
      }
      for (const auto& [id, remaining] : need) {
        (void)id;
        if (remaining > 0) return Status::kBadIndex;
      }
    }
  }
  // Copy-on-write, as in insert(): the swap-removes run on a private copy.
  auto next = std::make_shared<std::vector<int>>(*ids_);
  std::vector<int>& list = *next;
  for (const int id : ids) {
    const auto it = std::find(list.begin(), list.end(), id);
    assert(it != list.end());
    const int pos = static_cast<int>(it - list.begin());
    const int last = static_cast<int>(list.size()) - 1;
    list[static_cast<std::size_t>(pos)] = list[static_cast<std::size_t>(last)];
    list.pop_back();
    if (poison_) {
      bad_[static_cast<std::size_t>(pos)] = bad_[static_cast<std::size_t>(last)];
      bad_.pop_back();
    }
    invalidate_block_locked(pos / bp_.nc);
    invalidate_block_locked(last / bp_.nc);
  }
  const int nblocks =
      list.empty() ? 0
                   : static_cast<int>(ceil_div(
                         list.size(), static_cast<std::size_t>(bp_.nc)));
  ids_ = std::move(next);
  for (int b = nblocks; b < static_cast<int>(blocks_.size()); ++b) {
    invalidate_block_locked(b);
  }
  blocks_.resize(static_cast<std::size_t>(nblocks));
  ++epoch_;
  flightrec::record(flightrec::Kind::kPackUpdate, -1, 0, epoch_, 0,
                    static_cast<int>(ids_->size()));
  return Status::kOk;
}

template <typename T>
std::uint64_t PackedRefsT<T>::epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return epoch_;
}

template <typename T>
typename PackedRefsT<T>::Snapshot PackedRefsT<T>::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return Snapshot{ids_, epoch_};
}

template <typename T>
int PackedRefsT<T>::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ids_ ? static_cast<int>(ids_->size()) : 0;
}

template <typename T>
std::span<const int> PackedRefsT<T>::ids() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (!ids_) return {};
  return std::span<const int>(*ids_);
}

template <typename T>
typename PackedRefsT<T>::Stats PackedRefsT<T>::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s = st_;
  s.resident_bytes = resident_bytes_;
  s.resident_blocks = 0;
  for (const Block& b : blocks_) {
    if (b.resident) ++s.resident_blocks;
  }
  return s;
}

template <typename T>
int PackedRefsT<T>::num_blocks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(blocks_.size());
}

template <typename T>
bool PackedRefsT<T>::layout_compatible(Norm query_norm) const {
  if (!built()) return false;
  // ℓ∞ panels are NaN-poisoned and everything else must not be (a poisoned
  // column would corrupt additive norms; an unpoisoned one breaks ℓ∞'s NaN
  // contract) — its own class in both directions.
  if ((query_norm == Norm::kLInf) != poison_) return false;
  // Norm-needing queries require the packed norms; a norms-class cache also
  // serves ℓ1/ℓp (the norms are simply not read, panels are byte-identical).
  const bool query_needs_norms =
      (query_norm == Norm::kL2Sq || query_norm == Norm::kCosine);
  return !query_needs_norms || needs_norms_;
}

template <typename T>
Status PackedRefsT<T>::acquire(int block, Lease& lease,
                               std::uint64_t expected_epoch) {
  std::lock_guard<std::mutex> lk(mu_);
  // Per-block stale handshake, checked BEFORE bounds: re-validate the
  // caller's pinned generation under the same lock mutators bump it under,
  // so an update landing between a call's entry check and this pin is
  // caught here — the caller never receives a panel packed for a different
  // generation than the id snapshot it validated. Checking epoch first also
  // keeps the failure honest when the update shrank the block count: the
  // caller's block index was valid for ITS generation, so it must see
  // kStale, not kBadIndex.
  if (expected_epoch != kEpochAny && expected_epoch != epoch_) {
    return Status::kStale;
  }
  if (!built() || block < 0 || block >= static_cast<int>(blocks_.size())) {
    return Status::kBadIndex;
  }
  Block& blk = blocks_[static_cast<std::size_t>(block)];
  lease = Lease{};
  if (!blk.resident) {
    const Status s = pack_block_locked(block);
    if (s != Status::kOk) return s;
    lease.bytes_packed = blk.bytes;
    ++st_.misses;
    metrics::add_counter(metrics::Counter::kPackMisses);
  } else {
    ++st_.hits;
    metrics::add_counter(metrics::Counter::kPackHits);
  }
  blk.lru = ++tick_;
  ++blk.pins;
  int j0 = 0, nb = 0;
  block_range(block, j0, nb);
  lease.panel = blk.data->panel.data();
  lease.norms = needs_norms_ ? blk.data->norms.data() : nullptr;
  lease.nb = nb;
  lease.nbpad = static_cast<int>(round_up(static_cast<std::size_t>(nb),
                                          static_cast<std::size_t>(tnr_)));
  lease.hold = blk.data;  // defers any concurrent invalidation's free
  evict_over_budget_locked(block);
  return Status::kOk;
}

template <typename T>
void PackedRefsT<T>::release(int block) {
  std::lock_guard<std::mutex> lk(mu_);
  if (block < 0 || block >= static_cast<int>(blocks_.size())) return;
  Block& blk = blocks_[static_cast<std::size_t>(block)];
  if (blk.pins > 0) --blk.pins;
}

template <typename T>
void PackedRefsT<T>::block_range(int b, int& j0, int& nb) const {
  j0 = b * bp_.nc;
  const int n = static_cast<int>(ids_->size());
  nb = (n - j0 < bp_.nc) ? n - j0 : bp_.nc;
}

template <typename T>
std::size_t PackedRefsT<T>::block_bytes(int nb) const {
  const std::size_t nbpad = round_up(static_cast<std::size_t>(nb),
                                     static_cast<std::size_t>(tnr_));
  std::size_t bytes = nbpad * static_cast<std::size_t>(X_->dim()) * sizeof(T);
  if (needs_norms_) bytes += nbpad * sizeof(T);
  return bytes;
}

template <typename T>
Status PackedRefsT<T>::pack_block_locked(int b) {
  int j0 = 0, nb = 0;
  block_range(b, j0, nb);
  const int d = X_->dim();
  const std::size_t nbpad = round_up(static_cast<std::size_t>(nb),
                                     static_cast<std::size_t>(tnr_));
  Block& blk = blocks_[static_cast<std::size_t>(b)];
  try {
    // Fresh buffers every repack: an outstanding lease on the previous
    // generation (deferred invalidation) keeps the old BlockData alive, so
    // the new pack must not write into it.
    blk.data = std::make_shared<BlockData>();
    if (nbpad * static_cast<std::size_t>(d) > 0) {
      blk.data->panel.reset(nbpad * static_cast<std::size_t>(d));
    }
    if (needs_norms_ && nbpad > 0) blk.data->norms.reset(nbpad);
  } catch (const std::bad_alloc&) {
    blk.data.reset();
    return Status::kResourceExhausted;
  }
  const int dc = bp_.dc;
  for (int pc = 0; pc < d; pc += dc) {
    const int db = (d - pc < dc) ? d - pc : dc;
    T* const dst =
        blk.data->panel.data() + nbpad * static_cast<std::size_t>(pc);
    core::pack_points_rt(tnr_, level_, *X_, ids_->data(), j0, nb, pc, db, dst);
    if (poison_ && any_bad_) {
      core::poison_packed(dst, bad_.data(), j0, nb, tnr_, db);
    }
  }
  if (needs_norms_ && nbpad > 0) {
    core::pack_norms(tnr_, *X_, ids_->data(), j0, nb,
                     blk.data->norms.data());
  }
  blk.bytes = block_bytes(nb);
  blk.resident = true;
  resident_bytes_ += blk.bytes;
  st_.bytes_packed += blk.bytes;
  metrics::add_counter(metrics::Counter::kCacheBytes,
                       static_cast<std::uint64_t>(blk.bytes));
  return Status::kOk;
}

template <typename T>
void PackedRefsT<T>::invalidate_block_locked(int b) {
  if (b < 0 || b >= static_cast<int>(blocks_.size())) return;
  Block& blk = blocks_[static_cast<std::size_t>(b)];
  if (!blk.resident) return;
  // Dropping the shared reference is the whole invalidation: if a query
  // still leases this block, its Lease::hold keeps the buffers alive until
  // release — the free is deferred, never unsafe. That query's next
  // epoch-checked acquire returns kStale, so it can never *combine* this
  // stale panel with post-update ones.
  resident_bytes_ -= blk.bytes;
  blk.data.reset();
  blk.bytes = 0;
  blk.resident = false;
}

template <typename T>
void PackedRefsT<T>::evict_over_budget_locked(int protect) {
  if (budget_ == 0) return;
  while (resident_bytes_ > budget_) {
    int victim = -1;
    std::uint64_t oldest = ~0ull;
    for (int b = 0; b < static_cast<int>(blocks_.size()); ++b) {
      const Block& blk = blocks_[static_cast<std::size_t>(b)];
      if (!blk.resident || blk.pins > 0 || b == protect) continue;
      if (blk.lru < oldest) {
        oldest = blk.lru;
        victim = b;
      }
    }
    if (victim < 0) break;  // everything left is pinned: over-budget but safe
    const std::size_t freed =
        blocks_[static_cast<std::size_t>(victim)].bytes;
    invalidate_block_locked(victim);
    ++st_.evictions;
    metrics::add_counter(metrics::Counter::kPackEvictions);
    flightrec::record(flightrec::Kind::kPackEvict, -1, 0,
                      static_cast<std::uint64_t>(freed), 0, victim);
  }
}

template class PackedRefsT<double>;
template class PackedRefsT<float>;

}  // namespace gsknn
