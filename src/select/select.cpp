#include "gsknn/select/select.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "gsknn/select/heap.hpp"

namespace gsknn {

void select_heap_binary(const double* cand_dist, const int* cand_id, int n,
                        double* row_dist, int* row_id, int k) {
  for (int j = 0; j < n; ++j) {
    heap::binary_try_insert(row_dist, row_id, k, cand_dist[j], cand_id[j]);
  }
}

namespace {

using Pair = std::pair<double, int>;

// std::pair's operator< is the lexicographic (distance, id) order of the
// tie-breaking contract; all comparisons below use full pairs so equal
// distances resolve deterministically by lowest id.

/// Median-of-three pivot selection: places the median of a[lo], a[mid],
/// a[hi] at a[lo].
void median_of_three(Pair* a, int lo, int hi) {
  const int mid = lo + (hi - lo) / 2;
  if (a[mid] < a[lo]) std::swap(a[mid], a[lo]);
  if (a[hi] < a[lo]) std::swap(a[hi], a[lo]);
  if (a[mid] < a[hi]) std::swap(a[mid], a[hi]);
  std::swap(a[lo], a[hi]);
}

/// Hoare partition around pivot a[lo]; returns the final pivot slot.
int partition(Pair* a, int lo, int hi) {
  const Pair pivot = a[lo];
  int i = lo;
  int j = hi + 1;
  for (;;) {
    do {
      ++i;
    } while (i <= hi && a[i] < pivot);
    do {
      --j;
    } while (pivot < a[j]);
    if (i >= j) break;
    std::swap(a[i], a[j]);
  }
  std::swap(a[lo], a[j]);
  return j;
}

}  // namespace

std::pair<double, int> quickselect_kth(Pair* a, int n, int kth) {
  assert(n > 0 && kth >= 0 && kth < n);
  int lo = 0;
  int hi = n - 1;
  for (;;) {
    if (lo == hi) return a[lo];
    median_of_three(a, lo, hi);
    const int p = partition(a, lo, hi);
    if (kth == p) return a[p];
    if (kth < p) {
      hi = p - 1;
    } else {
      lo = p + 1;
    }
  }
}

void select_quick(const double* cand_dist, const int* cand_id, int n,
                  double* row_dist, int* row_id, int k,
                  SelectScratch& scratch) {
  // Concatenate the existing row with the candidates (paper §2.2: "first
  // concatenate the list with n candidates and find the new kth element").
  auto& buf = scratch.pairs;
  buf.clear();
  buf.reserve(static_cast<std::size_t>(n + k));
  for (int j = 0; j < k; ++j) buf.emplace_back(row_dist[j], row_id[j]);
  // Non-finite candidates are rejected up front: NaN is unordered and would
  // corrupt the partition invariants, and the contract keeps them out of
  // neighbor rows anyway.
  for (int j = 0; j < n; ++j) {
    if (std::isfinite(cand_dist[j])) buf.emplace_back(cand_dist[j], cand_id[j]);
  }

  quickselect_kth(buf.data(), static_cast<int>(buf.size()), k - 1);
  // buf[0..k) now holds the k smallest in arbitrary order: rebuild the heap.
  for (int j = 0; j < k; ++j) {
    row_dist[j] = buf[static_cast<std::size_t>(j)].first;
    row_id[j] = buf[static_cast<std::size_t>(j)].second;
  }
  heap::binary_build(row_dist, row_id, k);
}

namespace {

/// Bottom-up merge sort over pairs (ascending by distance), using `tmp` as
/// the auxiliary buffer (same length as the range).
void merge_sort_pairs(Pair* a, int n, Pair* tmp) {
  for (int width = 1; width < n; width *= 2) {
    for (int lo = 0; lo < n; lo += 2 * width) {
      const int mid = std::min(lo + width, n);
      const int hi = std::min(lo + 2 * width, n);
      int i = lo, j = mid, o = lo;
      while (i < mid && j < hi) {
        tmp[o++] = (a[j] < a[i]) ? a[j++] : a[i++];
      }
      while (i < mid) tmp[o++] = a[i++];
      while (j < hi) tmp[o++] = a[j++];
    }
    std::copy(tmp, tmp + n, a);
  }
}

}  // namespace

void select_merge(const double* cand_dist, const int* cand_id, int n,
                  double* row_dist, int* row_id, int k,
                  SelectScratch& scratch) {
  // Current list, sorted ascending — the running "first k" result.
  auto& buf = scratch.pairs;
  buf.clear();
  buf.resize(static_cast<std::size_t>(3 * k));
  Pair* best = buf.data();           // k slots: current best, sorted
  Pair* chunk = best + k;            // k slots: one candidate chunk
  Pair* tmp = chunk + k;             // k slots: merge-sort scratch

  for (int j = 0; j < k; ++j) best[j] = {row_dist[j], row_id[j]};
  merge_sort_pairs(best, k, tmp);

  // Process candidates in chunks of k: sort the chunk, then a single
  // truncated merge with `best` keeps the k smallest of both.
  for (int base = 0; base < n; base += k) {
    const int take = std::min(k, n - base);
    // Non-finite candidates are skipped (contract: they never enter a row).
    int len = 0;
    for (int j = 0; j < take; ++j) {
      if (std::isfinite(cand_dist[base + j])) {
        chunk[len++] = {cand_dist[base + j], cand_id[base + j]};
      }
    }
    merge_sort_pairs(chunk, len, tmp);
    // Truncated merge into tmp (first k survivors only).
    int i = 0, c = 0;
    for (int o = 0; o < k; ++o) {
      if (c < len && (i >= k || chunk[c] < best[i])) {
        tmp[o] = chunk[c++];
      } else {
        tmp[o] = best[i++];
      }
    }
    std::copy(tmp, tmp + k, best);
  }

  for (int j = 0; j < k; ++j) {
    row_dist[j] = best[j].first;
    row_id[j] = best[j].second;
  }
  heap::binary_build(row_dist, row_id, k);
}

void select_stl(const double* cand_dist, const int* cand_id, int n,
                double* row_dist, int* row_id, int k, SelectScratch& scratch) {
  // Reference implementation over std::*_heap, matching the "STL max heap"
  // baseline in the paper's experiments.
  auto& h = scratch.pairs;
  h.resize(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) h[static_cast<std::size_t>(j)] = {row_dist[j], row_id[j]};
  std::make_heap(h.begin(), h.end());
  for (int j = 0; j < n; ++j) {
    // Accept = strictly smaller in (distance, id) order and finite — the
    // same rule as heap::pair_accepts, so this baseline selection agrees
    // bitwise with the fused kernel on ties and non-finite candidates.
    const Pair c{cand_dist[j], cand_id[j]};
    if (c < h.front() && std::isfinite(c.first)) {
      std::pop_heap(h.begin(), h.end());
      h.back() = c;
      std::push_heap(h.begin(), h.end());
    }
  }
  for (int j = 0; j < k; ++j) {
    row_dist[j] = h[static_cast<std::size_t>(j)].first;
    row_id[j] = h[static_cast<std::size_t>(j)].second;
  }
}

}  // namespace gsknn
