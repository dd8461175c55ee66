// Max-heap primitives used for neighbor selection (paper §2.2, §2.4).
//
// A neighbor list of size k is a binary max-heap over squared distances
// with the associated point ids carried alongside: the root is the current
// k-th nearest distance, so a new candidate is rejected with a single
// compare (O(1)), and accepted candidates replace the root and sift down
// (O(log k)). Rows start "full" of +inf sentinels so there is no separate
// build-up phase on the hot path.
//
// The paper pairs large k with a padded 4-ary heap (§2.4). On the x86
// host measured here binary rows are faster for Var#1's per-candidate
// inserts at every k, and, with binary_build's branch-free child pick,
// for Var#5's merged rows too, so every row is binary (EXPERIMENTS.md
// §2.4).
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
/// and every variant/thread count produces the same k-smallest
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

/// Floyd's O(k) bottom-up heap construction over arbitrary row contents —
/// Var#5's per-row rebuild. The same sift as binary_sift_down under the
/// same strict (distance, id) order, so the heap is bitwise the one a
/// binary_sift_down per node builds, but the larger child is picked with a
/// select instead of a branch: on a row of arbitrary entries that pick is a
/// coin flip, and with the branch the build ran slower than the 4-ary one
/// it replaced (EXPERIMENTS.md §2.4). binary_sift_down keeps the branch: on
/// Var#1's per-candidate path it measured faster at large k.
template <typename T>
inline void binary_build(T* GSKNN_RESTRICT dist, int* GSKNN_RESTRICT id,
                         int k) {
  const int last = k - 1;  // a node at 2p+1 < last has two children
  for (int i = k / 2 - 1; i >= 0; --i) {
    const T d = dist[i];
    const int x = id[i];
    int pos = i;
    for (;;) {
      int child = 2 * pos + 1;
      if (child > last) break;
      if (child < last) {
        const T a = dist[child];
        const T b = dist[child + 1];
        child += static_cast<int>((a < b) |
                                  ((a == b) & (id[child] < id[child + 1])));
      }
      if (!pair_less(d, x, dist[child], id[child])) break;
      dist[pos] = dist[child];
      id[pos] = id[child];
      pos = child;
    }
    dist[pos] = d;
    id[pos] = x;
  }
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

}  // namespace gsknn::heap
