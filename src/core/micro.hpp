// Fused micro-kernel contract (internal; paper Algorithm 2.3).
//
// One call processes a single m_r × n_r tile through up to four steps:
//   1. rank-dc update     acc = (Cin ? Cin : 0) ⊕ combine(Qp, Rp)
//                          (⊕ is + for ℓ2/cosine/ℓ1/ℓp, max for ℓ∞)
//   2. distance finish    ℓ2/cosine, when `last`: map inner products to
//                          distances in registers
//   3. heap selection     when `sel` (Var#1): insert acc(i,j), i<rows,
//                          j<cols, into the per-row heaps
//   4. store              when Cout: write the tile — query-major
//                          Cout[i·ldout + j] (rows contiguous, what the
//                          selection variants scan) or column-major
//                          Cout[i + j·ldout] (pure accumulator buffers)
//
// Everything is templated on the distance scalar T: the paper-faithful
// double path and the single-precision extension share one driver. Tile
// geometry travels with the kernel (MicroKernelT), so each (ISA, scalar)
// pair picks its own shape:
//   scalar    8×4 (double and float)
//   AVX2+FMA  8×4 double, 8×8 float
//   AVX-512F  16×8 double, 16×8 float
// The double tiles come from f64_tile() (arch.hpp), the one place they are
// written down. The vector kernels are one template (micro_simd.hpp, on the
// register tile the GEMM kernels share, src/blas/simd_tile.hpp) instantiated
// at those shapes in micro_avx*.cpp; the scalar kernel (micro_scalar.cpp) is
// the ℓp path and the fallback without AVX2.
//
// Alongside the kernel contract live the selection rules every path shares
// (sel_accepts, Var#1's sel_insert, Var#5's row_select) and the plan-phase
// types the driver and the workspace planner share (KernelPlanT,
// plan_kernel).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "gsknn/common/arch.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/core/workspace.hpp"
#include "gsknn/select/heap.hpp"

namespace gsknn::core {

/// Register tile of the scalar kernels (the paper's mr=8, nr=4 on AVX).
inline constexpr int kMr = f64_tile(SimdLevel::kScalar).mr;
inline constexpr int kNr = f64_tile(SimdLevel::kScalar).nr;

/// Selection context for the fused (Var#1) path: per-valid-row heap
/// pointers plus candidate metadata.
template <typename T>
struct SelectCtxT {
  T* hd[kMaxMr];           ///< row heap distance arrays ([0, rows) valid)
  int* hi[kMaxMr];         ///< row heap id arrays
  RowIdSet* hset[kMaxMr];  ///< per-row dedup index (may be null entries)
  const int* cand_ids;     ///< global ids of the tile's columns
  int k = 0;
  int row_stride = 0;  ///< physical slots per row (fallback dedup scan bound)
  bool dedup = false;
  /// Candidates sel_insert took. The driver pre-counts every candidate as
  /// a root-reject and, with a profile sink attached, reclassifies these as
  /// pushes after the tile, so pushes + rejects == candidates exactly.
  mutable std::uint64_t pushes = 0;
};

/// The selection accept predicate, shared by every path that offers a
/// candidate to a heap row (scalar micro-kernel accept loops, the AVX
/// prefilter re-checks and row_select). Fast reject first — `!(d <= root)`
/// is one compare that throws out both d > root and NaN, matching the
/// vectorized `_CMP_LE_OQ` prefilters exactly — then the full
/// lexicographic-and-finite rule (heap::pair_accepts) on the rare survivor.
/// Keeping one definition is what makes all variants and SIMD levels agree
/// bitwise on ties, NaN and ±inf (docs/CONTRACT.md).
template <typename T>
GSKNN_ALWAYS_INLINE bool sel_accepts(T d, int id, const T* GSKNN_RESTRICT hd,
                                     const int* GSKNN_RESTRICT hi) {
  if (GSKNN_LIKELY(!(d <= hd[0]))) return false;
  return heap::pair_accepts(d, id, hd[0], hi[0]);
}

/// Root replacement dispatch: the sorted small-k fast path for
/// k ≤ kSmallSortedK (a sorted row is a valid binary heap, so the two
/// strategies can interleave), binary sift otherwise.
template <typename T>
GSKNN_ALWAYS_INLINE void sel_replace_root(T* GSKNN_RESTRICT hd,
                                          int* GSKNN_RESTRICT hi, int k, T d,
                                          int id) {
  if (k <= heap::kSmallSortedK) {
    heap::small_sorted_replace_root(hd, hi, k, d, id);
  } else {
    heap::binary_replace_root(hd, hi, k, d, id);
  }
}

/// Reclassify `n` pre-counted root-rejects as heap pushes. Called once per
/// tile or row, never per insert: testing for a slot on every insert cost
/// the unprofiled fused kernels 2-5% at k = 16 (EXPERIMENTS.md, "Work
/// counters in the one build").
inline void count_pushes(telemetry::ThreadCounters* tc, std::uint64_t n) {
  tc->add(telemetry::Counter::kHeapPushes, n);
  tc->sub(telemetry::Counter::kRootRejects, n);
}

/// Insert one accepted candidate (caller already verified sel_accepts) into
/// a row of the tile — the in-tile (Var#1) selection — and count it in
/// s.pushes. A dedup row drops an id it already holds.
template <typename T>
GSKNN_ALWAYS_INLINE void sel_insert(const SelectCtxT<T>& s, int row, T d,
                                    int id) {
  T* const hd = s.hd[row];
  int* const hi = s.hi[row];
  if (s.k == 1 && !s.dedup) {
    // k == 1 specialization: the heap is a single slot, so the accept is
    // two stores — no dedup scan, no sift dispatch. (A register-argmin tile
    // epilogue was also tried and measured slower: the prefilter already
    // rejects whole tiles with two compares, so any unconditional per-tile
    // reduction only adds work; see EXPERIMENTS.md "Hot-path tuning".)
    hd[0] = d;
    hi[0] = id;
    ++s.pushes;
    return;
  }
  if (s.dedup) {
    if (s.hset[row] != nullptr) {
      if (!s.hset[row]->insert_if_absent(id)) return;
    } else {
      for (int t = 0; t < s.row_stride; ++t) {
        if (hi[t] == id) return;
      }
    }
  }
  sel_replace_root(hd, hi, s.k, d, id);
  ++s.pushes;
}

/// Smallest k at which kAuto runs Var#5, whose row_select merges each
/// finished row in one batch, instead of Var#1's sift fused into the tile
/// (EXPERIMENTS.md, Figure 5 re-run and "One finished-row merge").
inline constexpr int kBatchSelectMinK = 256;

/// One (distance, id) entry of row_select's batch scratch.
template <typename T>
struct SelPair {
  T d;
  int id;
};

/// A sampled upper bound on the k-th smallest of a row's `len` candidate
/// distances, or +inf when the row is under 4k long and narrowing it does
/// not pay. A strided sample of 256 distances (non-finite ones read as
/// +inf) is ranked at its expected k-th position plus three standard
/// deviations, so about 1.2k candidates fall under the bound.
template <typename T>
T batch_bound(const T* GSKNN_RESTRICT cand, int len, int k) {
  constexpr int kSample = 256;
  constexpr T kInf = std::numeric_limits<T>::infinity();
  if (len < 4 * k || len < 2 * kSample) return kInf;
  T sample[kSample];
  const int stride = len / kSample;
  for (int i = 0; i < kSample; ++i) {
    const T x = cand[static_cast<long>(i) * stride];
    sample[i] = std::isfinite(x) ? x : kInf;
  }
  const double expect = static_cast<double>(k) * kSample / len;
  const int rank = static_cast<int>(expect + 3.0 * std::sqrt(expect)) + 2;
  std::nth_element(sample, sample + rank, sample + kSample);
  return sample[rank];
}

/// Drop the filter survivors a dedup row refuses and return how many are
/// left, sorted by id: ids the row holds (its RowIdSet, or its `stride`
/// slots when it has none) and every copy of an id after its nearest one.
template <typename T>
int drop_held_ids(SelPair<T>* GSKNN_RESTRICT sv, int s,
                  const int* GSKNN_RESTRICT hi, const RowIdSet* hset,
                  int stride) {
  SelPair<T>* const end = std::remove_if(sv, sv + s, [&](const SelPair<T>& p) {
    return hset != nullptr ? hset->contains(p.id)
                           : std::find(hi, hi + stride, p.id) != hi + stride;
  });
  std::sort(sv, end, [](const SelPair<T>& a, const SelPair<T>& b) {
    return a.id < b.id || (a.id == b.id && a.d < b.d);
  });
  const auto same_id = [](const SelPair<T>& a, const SelPair<T>& b) {
    return a.id == b.id;
  };
  return static_cast<int>(std::unique(sv, end, same_id) - sv);
}

/// Merge `len` contiguous finished distances (candidate j carries global id
/// ids[j]) into one heap row in one batch — the Var#5 selection — with
/// `scratch` room for len + k pairs:
///   1. filter the candidates that beat the row's root and a sampled bound
///      on the k-th distance (batch_bound); a dedup row drops repeated and
///      held ids (drop_held_ids). The bound is dropped unless k distinct
///      entries of row ∪ survivors fall under it, so nothing filtered out
///      is among the k smallest;
///   2. if any survivor is left, a dedup row's RowIdSet takes the
///      survivors (only now: a retry on the root alone must not find them
///      held; a loser stays a stale id, which cannot pass the root again),
///      nth_element survivors ∪ the row's entries under the bound, write
///      the k smallest back and rebuild the heap.
/// The k smallest entries under the (distance, id) order are unique as a
/// multiset, so the sorted row is bitwise the one a per-candidate scan
/// produces (docs/CONTRACT.md). A non-null `tc` counts every candidate
/// once: a push when it entered the merged row, a reject otherwise.
template <typename T>
void row_select(const T* GSKNN_RESTRICT cand, const int* GSKNN_RESTRICT ids,
                int len, T* GSKNN_RESTRICT hd, int* GSKNN_RESTRICT hi,
                RowIdSet* hset, int k, int stride, bool dedup,
                SelPair<T>* GSKNN_RESTRICT scratch,
                telemetry::ThreadCounters* tc = nullptr) {
  if (tc != nullptr) {
    const auto n = static_cast<std::uint64_t>(len);
    tc->add(telemetry::Counter::kCandidates, n);
    tc->add(telemetry::Counter::kRootRejects, n);
  }
  constexpr T kInf = std::numeric_limits<T>::infinity();
  // 1. Filter. The stores are unconditional and only the count moves, so
  //    the loop does not branch on which candidates survive.
  T bound = batch_bound(cand, len, k);
  int s = 0;
  for (;;) {
    s = 0;
    for (int j = 0; j < len; ++j) {
      scratch[s] = {cand[j], ids[j]};
      s += (sel_accepts(cand[j], ids[j], hd, hi) && cand[j] <= bound) ? 1 : 0;
    }
    if (dedup) s = drop_held_ids(scratch, s, hi, hset, stride);
    if (bound == kInf) break;
    int under = s;
    for (int j = 0; j < k; ++j) under += (hd[j] <= bound) ? 1 : 0;
    if (under >= k) break;
    bound = kInf;  // the sample undershot: filter on the root alone
  }
  if (s == 0) return;  // nothing beats the row: it stays as it is
  if (dedup && hset != nullptr) {
    // In id order: a set filled so answers later lookups about twice as
    // fast as one filled in heap order (EXPERIMENTS.md).
    for (int j = 0; j < s; ++j) hset->insert_if_absent(scratch[j].id);
  }
  // 2. Select the k smallest of survivors ∪ row and rebuild the heap.
  int total = s;
  for (int j = 0; j < k; ++j) {
    scratch[total] = {hd[j], hi[j]};
    total += (hd[j] <= bound) ? 1 : 0;
  }
  std::nth_element(scratch, scratch + (k - 1), scratch + total,
                   [](const SelPair<T>& a, const SelPair<T>& b) {
                     return heap::pair_less(a.d, a.id, b.d, b.id);
                   });
  if (tc != nullptr) {
    // The row took the survivors not after the k-th pair: all such entries
    // of survivors ∪ row (the first k, plus any later copy of the k-th
    // pair) less the row's own, counted before the write-back.
    const SelPair<T> kth = scratch[k - 1];
    const auto upto_kth = [&kth](T d, int id) {
      return !heap::pair_less(kth.d, kth.id, d, id);
    };
    std::uint64_t pushes = k;
    for (int j = k; j < total; ++j) {
      pushes += upto_kth(scratch[j].d, scratch[j].id) ? 1 : 0;
    }
    for (int j = 0; j < k; ++j) {
      pushes -= upto_kth(hd[j], hi[j]) ? 1 : 0;
    }
    count_pushes(tc, pushes);
  }
  for (int j = 0; j < k; ++j) {
    hd[j] = scratch[j].d;
    hi[j] = scratch[j].id;
  }
  heap::binary_build(hd, hi, k);
}

/// The unified micro-kernel signature. `dcur` is the current depth-block
/// length; `finish` is true on the final depth block; `lp` is the ℓp
/// exponent (ignored by the fixed norms); `c_colmajor` selects the Cin/Cout
/// tile layout.
template <typename T>
using MicroFnT = void (*)(int dcur, const T* Qp, const T* Rp, const T* Cin,
                          int ldin, T* Cout, int ldout, bool c_colmajor,
                          const T* q2, const T* r2, bool finish, int rows,
                          int cols, const SelectCtxT<T>* sel, double lp);

/// A micro-kernel plus the register-tile geometry it implements. Packing,
/// blocking validation and edge handling in the driver all derive from
/// mr/nr, so porting to a new ISA is: instantiate the tile template with
/// its traits, report the tile (the paper's portability argument, §5).
template <typename T>
struct MicroKernelT {
  MicroFnT<T> fn = nullptr;
  int mr = kMr;
  int nr = kNr;
};

/// The vector kernels of each ISA at one precision (T = double or float).
/// fn == nullptr where an ISA has no kernel for the norm (ℓp runs only the
/// scalar kernel of micro_scalar.cpp).
#if defined(GSKNN_BUILD_AVX2)
template <typename T>
MicroKernelT<T> micro_avx2(Norm norm);
#endif
#if defined(GSKNN_BUILD_AVX512)
template <typename T>
MicroKernelT<T> micro_avx512(Norm norm);
#endif

/// The best kernel at or below `level` for `norm` (ℓp always resolves to
/// the scalar kernel).
template <typename T>
MicroKernelT<T> select_micro(SimdLevel level, Norm norm);

/// Resolve (micro-kernel, blocking) consistently: explicit blocking pins the
/// tile geometry and the dispatcher searches lower SIMD levels for a kernel
/// matching it; otherwise blocking is derived from the best kernel's tile.
/// `chosen` reports the SIMD level the kernel actually dispatched to. Defined
/// in workspace.cpp and shared by the driver and the workspace planner so the
/// two can never disagree about the footprint.
template <typename T>
void resolve_kernel_and_blocking(SimdLevel level, const KnnConfig& cfg,
                                 MicroKernelT<T>& mk, BlockingParams& bp,
                                 SimdLevel& chosen);

/// Resolved plan for one kernel invocation: everything the loop nest needs
/// before a single byte moves.
template <typename T>
struct KernelPlanT {
  Variant variant = Variant::kVar1;  ///< resolve_variant's pick
  BlockingParams bp;       ///< balanced + retiled blocking
  MicroKernelT<T> mk;      ///< selected micro-kernel (fn, mr, nr)
  SimdLevel chosen = SimdLevel::kScalar;  ///< level the kernel dispatched to
  int threads = 1;
  bool needs_norms = false;
  WorkspacePlan ws;
};

/// The plan steps shared by the cold and warm paths once kp.mk, kp.bp and
/// kp.chosen are fixed: balance mc over the thread team, resolve the
/// variant and the cap, then run the workspace planner (which may retile
/// under a cap — bitwise-result-preserving, gsknn/core/workspace.hpp).
/// Side-effect free: the driver records the governance counters the
/// finished plan implies. Defined in workspace.cpp.
template <typename T>
void plan_kernel_tail(int m, int n, int d, int k, const KnnConfig& cfg,
                      bool packed_refs, KernelPlanT<T>& kp);

/// Cold-path plan: resolve_kernel_and_blocking at the host's best SIMD
/// level, then plan_kernel_tail. Throws StatusError(kBadConfig) for
/// blockings no micro-kernel matches. plan_knn_workspace is this plan's ws.
template <typename T>
void plan_kernel(int m, int n, int d, int k, const KnnConfig& cfg,
                 KernelPlanT<T>& kp);

}  // namespace gsknn::core
