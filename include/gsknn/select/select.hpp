// Selection algorithms for the kNN kernel (paper §2.2, Table 3).
//
// All four update an existing neighbor row (binary max-heap, k slots) with
// n new candidates. They are interchangeable so the
// `ablation_selection` bench can compare them under identical workloads:
//
//   * select_heap_binary — O(n) best case (all rejected by the root
//     compare), O(n log k) worst; the algorithm GSKNN fuses.
//   * select_quick  — concatenate row + candidates, Hoare quickselect the
//     k-th smallest, keep the lower part; O(n + k) average but pays the
//     concatenation even when nothing qualifies.
//   * select_merge  — sort candidates in k-sized chunks, merge each sorted
//     chunk into the sorted row keeping the first k; Θ(n log k) always.
//   * select_stl    — std::make_heap/pop_heap reference (the paper's
//     "MKL + STL" baseline selection).
//
// All four implement the selection contract (docs/CONTRACT.md): entries
// compare by (distance, id) lexicographically — equal distances keep the
// lowest id — and candidates with non-finite distances are rejected, so
// NaN/±inf never enter a row and every algorithm returns the same
// k-smallest multiset for the same candidates.
#pragma once

#include <utility>
#include <vector>

namespace gsknn {

/// Scratch space reused across calls to the non-heap algorithms to keep them
/// allocation-free on the hot path.
struct SelectScratch {
  std::vector<std::pair<double, int>> pairs;
};

void select_heap_binary(const double* cand_dist, const int* cand_id, int n,
                        double* row_dist, int* row_id, int k);

void select_quick(const double* cand_dist, const int* cand_id, int n,
                  double* row_dist, int* row_id, int k, SelectScratch& scratch);

void select_merge(const double* cand_dist, const int* cand_id, int n,
                  double* row_dist, int* row_id, int k, SelectScratch& scratch);

void select_stl(const double* cand_dist, const int* cand_id, int n,
                double* row_dist, int* row_id, int k, SelectScratch& scratch);

/// k-th smallest (0-based order statistic `kth`) of `a[0..n)` by in-place
/// Hoare quickselect with median-of-three pivoting. Exposed for tests.
std::pair<double, int> quickselect_kth(std::pair<double, int>* a, int n,
                                       int kth);

}  // namespace gsknn
