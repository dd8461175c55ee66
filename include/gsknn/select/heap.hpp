// Max-heap primitives used for neighbor selection (paper §2.2, §2.4).
//
// A neighbor list of size k is a max-heap over squared distances with the
// associated point ids carried alongside: the root is the current k-th
// nearest distance, so a new candidate is rejected with a single compare
// (O(1)), and accepted candidates replace the root and sift down
// (O(log k)). Rows start "full" of +inf sentinels so there is no separate
// build-up phase on the hot path.
//
// Two arities are provided:
//   * binary heap   — lowest instruction count per sift level; used by
//     Var#1 for small k;
//   * 4-ary heap    — root padded by three unused slots so each group of
//     four children is 32-byte aligned and shares a cache line; shallower
//     (log4 k) at the cost of a max-of-4 scan per level; the paper's pick
//     for Var#6 at large k (Figure 1), paired here with Var#5.
//
// All functions are header-inline: they are called from inside the fused
// micro-kernel and must not cost a call.
#pragma once

#include <cassert>
#include <cmath>
#include <limits>

#include "gsknn/common/macros.hpp"

namespace gsknn::heap {

inline constexpr double kInfDist = std::numeric_limits<double>::infinity();
inline constexpr int kNoId = -1;

/// All operations are templated on the distance scalar (double for the
/// paper-faithful path, float for the single-precision extension); explicit
/// double/float arguments deduce T with zero call-site churn.

/// The total order behind the deterministic-results contract
/// (docs/CONTRACT.md): neighbor entries compare by (distance, id)
/// lexicographically, so equal-distance candidates are kept lowest-id-first
/// and every variant/thread count/arity produces the same k-smallest
/// multiset regardless of candidate arrival order. NaN never compares true
/// on either side (callers reject non-finite candidates before insertion;
/// see pair_accepts).
template <typename T>
GSKNN_ALWAYS_INLINE bool pair_less(T d1, int i1, T d2, int i2) {
  return d1 < d2 || (d1 == d2 && i1 < i2);
}

/// Accept predicate for offering candidate (d, x) to a heap whose root is
/// (root_d, root_x): strictly smaller in the (distance, id) order AND
/// finite. The finiteness check is what keeps NaN (unordered — it would
/// otherwise fall through equal-distance id compares) and −inf (cosine with
/// inf coordinates) out of neighbor lists; +inf candidates are already
/// rejected by the id compare against the (+inf, −1) sentinels.
template <typename T>
GSKNN_ALWAYS_INLINE bool pair_accepts(T d, int x, T root_d, int root_x) {
  return pair_less(d, x, root_d, root_x) && std::isfinite(d);
}

// ---------------------------------------------------------------------------
// Binary max-heap.
// ---------------------------------------------------------------------------

/// Fill a row with +inf sentinels ("empty but structurally full" heap).
template <typename T>
inline void binary_init(T* GSKNN_RESTRICT dist, int* GSKNN_RESTRICT id,
                        int k) {
  for (int i = 0; i < k; ++i) {
    dist[i] = std::numeric_limits<T>::infinity();
    id[i] = kNoId;
  }
}

/// Sift the element at `pos` down to restore the max-heap property. The
/// heap orders by (distance, id) lexicographically — see pair_less.
template <typename T>
inline void binary_sift_down(T* GSKNN_RESTRICT dist,
                             int* GSKNN_RESTRICT id, int k, int pos) {
  const T d = dist[pos];
  const int x = id[pos];
  for (;;) {
    int child = 2 * pos + 1;
    if (child >= k) break;
    if (child + 1 < k &&
        pair_less(dist[child], id[child], dist[child + 1], id[child + 1])) {
      ++child;
    }
    if (!pair_less(d, x, dist[child], id[child])) break;
    dist[pos] = dist[child];
    id[pos] = id[child];
    pos = child;
  }
  dist[pos] = d;
  id[pos] = x;
}

/// Floyd's O(k) bottom-up heap construction over arbitrary row contents.
template <typename T>
inline void binary_build(T* dist, int* id, int k) {
  for (int i = k / 2 - 1; i >= 0; --i) binary_sift_down(dist, id, k, i);
}

/// Replace the root (largest element) with (d, x) and restore heap order.
/// Caller must have already established (d, x) < (dist[0], id[0]).
template <typename T>
inline void binary_replace_root(T* GSKNN_RESTRICT dist,
                                int* GSKNN_RESTRICT id, int k, T d,
                                int x) {
  dist[0] = d;
  id[0] = x;
  binary_sift_down(dist, id, k, 0);
}

/// Candidate insertion: O(1) reject, O(log k) accept. Non-finite distances
/// are rejected (pair_accepts), so NaN/±inf candidates never enter a row.
template <typename T>
GSKNN_ALWAYS_INLINE void binary_try_insert(T* GSKNN_RESTRICT dist,
                                           int* GSKNN_RESTRICT id, int k,
                                           T d, int x) {
  if (pair_accepts(d, x, dist[0], id[0])) {
    binary_replace_root(dist, id, k, d, x);
  }
}

/// Small-k root replacement: overwrite the root (slot 0 of any valid
/// max-heap holds the max) and restore order by insertion-sorting the row
/// descending. A sorted-descending row *is* a valid binary max-heap, so
/// this is safe to interleave with binary_replace_root in either direction:
/// it accepts any heap-ordered input, and its output satisfies the heap
/// property. When only this routine touches the row (the fused small-k
/// path), the row stays sorted and each call costs a short, predictable
/// shift instead of a data-dependent sift-down. Intended for k ≤ 8.
/// Kept out of line: it is called from the fused micro-kernels' accept path
/// (roughly one candidate in a hundred), and inlining the insertion pass
/// into every sel_insert site measurably bloats the kernels (icache; see
/// EXPERIMENTS.md "Hot-path tuning").
template <typename T>
GSKNN_NOINLINE inline void small_sorted_replace_root(T* GSKNN_RESTRICT dist,
                                      int* GSKNN_RESTRICT id, int k, T d,
                                      int x) {
  dist[0] = d;
  id[0] = x;
  for (int i = 1; i < k; ++i) {
    const T di = dist[i];
    const int xi = id[i];
    int j = i - 1;
    while (j >= 0 && pair_less(dist[j], id[j], di, xi)) {
      dist[j + 1] = dist[j];
      id[j + 1] = id[j];
      --j;
    }
    dist[j + 1] = di;
    id[j + 1] = xi;
  }
}

/// k below which the fused selection path uses small_sorted_replace_root
/// instead of the binary sift (both are valid heaps; see above).
inline constexpr int kSmallSortedK = 4;

/// Validation helper (tests only).
template <typename T>
inline bool binary_is_heap(const T* dist, int k) {
  for (int i = 1; i < k; ++i) {
    if (dist[i] > dist[(i - 1) / 2]) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Padded 4-ary max-heap.
//
// Logical node j lives at physical slot j == 0 ? 0 : j + 3, so the four
// children of logical node j (logical 4j+1 … 4j+4) occupy physical slots
// 4j+4 … 4j+7 — a 32-byte-aligned quad when the array is 64-byte aligned.
// Physical slots 1..3 are never read or written.
// ---------------------------------------------------------------------------

/// Physical array length required for a k-entry 4-ary heap.
constexpr int quad_physical_size(int k) { return k + 3; }

constexpr int quad_phys(int logical) { return logical == 0 ? 0 : logical + 3; }

template <typename T>
inline void quad_init(T* GSKNN_RESTRICT dist, int* GSKNN_RESTRICT id,
                      int k) {
  const int ps = quad_physical_size(k);
  for (int i = 0; i < ps; ++i) {
    dist[i] = std::numeric_limits<T>::infinity();
    id[i] = kNoId;
  }
}

/// Sift logical node `pos` down (arrays are in padded physical layout).
template <typename T>
inline void quad_sift_down(T* GSKNN_RESTRICT dist, int* GSKNN_RESTRICT id,
                           int k, int pos) {
  const T d = dist[quad_phys(pos)];
  const int x = id[quad_phys(pos)];
  for (;;) {
    const int first = 4 * pos + 1;  // logical index of first child
    if (first >= k) break;
    const int last = (first + 3 < k) ? first + 3 : k - 1;
    // Max-of-(up to 4) children; physical slots first+3 … last+3 are
    // contiguous, so this is a single cache line touch.
    int best = first;
    T bestd = dist[quad_phys(first)];
    int bestx = id[quad_phys(first)];
    for (int c = first + 1; c <= last; ++c) {
      const T cd = dist[quad_phys(c)];
      const int cx = id[quad_phys(c)];
      if (pair_less(bestd, bestx, cd, cx)) {
        bestd = cd;
        bestx = cx;
        best = c;
      }
    }
    if (!pair_less(d, x, bestd, bestx)) break;
    dist[quad_phys(pos)] = bestd;
    id[quad_phys(pos)] = bestx;
    pos = best;
  }
  dist[quad_phys(pos)] = d;
  id[quad_phys(pos)] = x;
}

template <typename T>
inline void quad_build(T* dist, int* id, int k) {
  for (int i = (k - 2) / 4; i >= 0; --i) quad_sift_down(dist, id, k, i);
}

template <typename T>
inline void quad_replace_root(T* GSKNN_RESTRICT dist,
                              int* GSKNN_RESTRICT id, int k, T d, int x) {
  dist[0] = d;
  id[0] = x;
  quad_sift_down(dist, id, k, 0);
}

template <typename T>
GSKNN_ALWAYS_INLINE void quad_try_insert(T* GSKNN_RESTRICT dist,
                                         int* GSKNN_RESTRICT id, int k,
                                         T d, int x) {
  if (pair_accepts(d, x, dist[0], id[0])) {
    quad_replace_root(dist, id, k, d, x);
  }
}

template <typename T>
inline bool quad_is_heap(const T* dist, int k) {
  for (int j = 1; j < k; ++j) {
    const int parent = (j - 1) / 4;
    if (dist[quad_phys(j)] > dist[quad_phys(parent)]) return false;
  }
  return true;
}

}  // namespace gsknn::heap
