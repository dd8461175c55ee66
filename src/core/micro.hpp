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
//   AVX-512F  16×4 double, 16×8 float
#pragma once

#include "gsknn/common/arch.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/select/heap.hpp"

namespace gsknn::core {

/// Register tile of the scalar and AVX2-double kernels (the paper's mr=8,
/// nr=4 on AVX).
inline constexpr int kMr = 8;
inline constexpr int kNr = 4;

/// Upper bounds across all kernels (sizes of per-tile scratch arrays).
inline constexpr int kMaxMr = 16;
inline constexpr int kMaxNr = 8;

/// Length of the per-query deferred candidate buffer (Var#1). Candidates
/// that pass the vectorized root prefilter are compress-stored here instead
/// of sifting into the heap inside the tile loop; the heap work happens in
/// batches at flush, off the FMA pipe's critical path. 16 entries keep one
/// row's buffer at two cache lines of distances plus one of ids.
inline constexpr int kCandBufLen = 16;

/// Smallest k for which the driver enables the deferred buffers. Below
/// this the binary sift is only a few levels deep and immediate insertion
/// wins; the measured crossover on the table5 shapes sits between k = 128
/// (deferral ~8% slower) and k = 512 (~10% faster).
inline constexpr int kDeferMinK = 256;

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
  HeapArity arity = HeapArity::kBinary;
  bool dedup = false;
  /// Telemetry slot of the owning thread (GSKNN_PROFILE builds only; the
  /// driver pre-counts every tile candidate as a root-reject and sel_insert
  /// reclassifies accepted ones, so pushes + rejects == candidates exactly).
  telemetry::ThreadCounters* tc = nullptr;
  /// Deferred candidate buffers for this tile's rows (kCandBufLen entries
  /// per row, counts alongside), or null for immediate insertion. The
  /// driver points these at the per-block arena offset of tile row 0, so
  /// buffers persist across the 3rd loop and flush at block end.
  T* buf_d = nullptr;
  int* buf_id = nullptr;
  int* buf_cnt = nullptr;
};

using SelectCtx = SelectCtxT<double>;

/// The selection accept predicate, shared by every path that offers a
/// candidate to a heap row (scalar micro-kernel accept loops, the AVX
/// prefilter re-checks, the driver's row_select and the deferred-buffer
/// flush). Fast reject first — `!(d <= root)` is one compare that throws
/// out both d > root and NaN, matching the vectorized `_CMP_LE_OQ`
/// prefilters exactly — then the full lexicographic-and-finite rule
/// (heap::pair_accepts) on the rare survivor. Keeping one definition is
/// what makes all variants and SIMD levels agree bitwise on ties, NaN and
/// ±inf (docs/CONTRACT.md).
template <typename T>
GSKNN_ALWAYS_INLINE bool sel_accepts(T d, int id, const T* GSKNN_RESTRICT hd,
                                     const int* GSKNN_RESTRICT hi) {
  if (GSKNN_LIKELY(!(d <= hd[0]))) return false;
  return heap::pair_accepts(d, id, hd[0], hi[0]);
}

/// Root replacement dispatch: quad heap for Var#6-style rows, the sorted
/// small-k fast path for k ≤ kSmallSortedK binary rows (a sorted row is a
/// valid binary heap, so the two binary strategies can interleave), binary
/// sift otherwise.
template <typename T>
GSKNN_ALWAYS_INLINE void sel_replace_root(T* GSKNN_RESTRICT hd,
                                          int* GSKNN_RESTRICT hi, int k,
                                          HeapArity arity, T d, int id) {
  if (arity == HeapArity::kQuad) {
    heap::quad_replace_root(hd, hi, k, d, id);
  } else if (k <= heap::kSmallSortedK) {
    heap::small_sorted_replace_root(hd, hi, k, d, id);
  } else {
    heap::binary_replace_root(hd, hi, k, d, id);
  }
}

/// Insert one accepted candidate into a raw heap row (caller already
/// verified sel_accepts). Shared by the in-tile path and the driver's
/// block-end flush of the deferred buffers.
template <typename T>
GSKNN_ALWAYS_INLINE void sel_insert_raw(T* GSKNN_RESTRICT hd,
                                        int* GSKNN_RESTRICT hi, RowIdSet* hset,
                                        int k, int stride, HeapArity arity,
                                        bool dedup,
                                        telemetry::ThreadCounters* tc, T d,
                                        int id) {
  if (k == 1 && !dedup) {
    // k == 1 specialization: the heap is a single slot, so the accept is
    // two stores — no dedup scan, no sift dispatch. (A register-argmin tile
    // epilogue was also tried and measured slower: the prefilter already
    // rejects whole tiles with two compares, so any unconditional per-tile
    // reduction only adds work; see EXPERIMENTS.md "Hot-path tuning".)
    hd[0] = d;
    hi[0] = id;
    if constexpr (telemetry::kCountersEnabled) {
      if (tc != nullptr) {
        tc->add(telemetry::Counter::kHeapPushes, 1);
        tc->sub(telemetry::Counter::kRootRejects, 1);
      }
    }
    return;
  }
  if (dedup) {
    if (hset != nullptr) {
      if (!hset->insert_if_absent(id)) return;
    } else {
      for (int t = 0; t < stride; ++t) {
        if (hi[t] == id) return;
      }
    }
  }
  sel_replace_root(hd, hi, k, arity, d, id);
  if constexpr (telemetry::kCountersEnabled) {
    if (tc != nullptr) {
      // The driver pre-counted this candidate as a root-reject; it survived.
      tc->add(telemetry::Counter::kHeapPushes, 1);
      tc->sub(telemetry::Counter::kRootRejects, 1);
    }
  }
}

/// Insert one accepted candidate (caller already verified sel_accepts).
template <typename T>
GSKNN_ALWAYS_INLINE void sel_insert(const SelectCtxT<T>& s, int row, T d,
                                    int id) {
  sel_insert_raw(s.hd[row], s.hi[row], s.hset[row], s.k, s.row_stride,
                 s.arity, s.dedup, s.tc, d, id);
}

/// Drain one row's deferred buffer through its heap. Candidates are
/// re-checked against the live root in arrival order, so the final neighbor
/// set is identical to immediate insertion (the prefilter only ever admits
/// a superset: roots shrink monotonically).
/// Kept out of line: it embeds the full heap sift, and inlining it into the
/// micro-kernels through sel_defer's flush-on-full branch bloats the tile
/// loop for a path that runs once per kCandBufLen accepted candidates.
template <typename T>
GSKNN_NOINLINE inline void sel_flush_raw(T* GSKNN_RESTRICT hd,
                                         int* GSKNN_RESTRICT hi, RowIdSet* hset,
                                         int k, int stride, HeapArity arity,
                                         bool dedup,
                                         telemetry::ThreadCounters* tc,
                                         T* GSKNN_RESTRICT bd,
                                         int* GSKNN_RESTRICT bid,
                                         int* GSKNN_RESTRICT cnt) {
  const int n = *cnt;
  for (int t = 0; t < n; ++t) {
    const T d = bd[t];
    if (sel_accepts(d, bid[t], hd, hi)) {
      sel_insert_raw(hd, hi, hset, k, stride, arity, dedup, tc, d, bid[t]);
    }
  }
  *cnt = 0;
}

template <typename T>
GSKNN_ALWAYS_INLINE void sel_flush_row(const SelectCtxT<T>& s, int row) {
  sel_flush_raw(s.hd[row], s.hi[row], s.hset[row], s.k, s.row_stride, s.arity,
                s.dedup, s.tc, s.buf_d + static_cast<long>(row) * kCandBufLen,
                s.buf_id + static_cast<long>(row) * kCandBufLen,
                s.buf_cnt + row);
}

/// Append one prefiltered candidate to its row buffer, flushing on fill.
template <typename T>
GSKNN_ALWAYS_INLINE void sel_defer(const SelectCtxT<T>& s, int row, T d,
                                   int id) {
  const int c = s.buf_cnt[row];
  s.buf_d[static_cast<long>(row) * kCandBufLen + c] = d;
  s.buf_id[static_cast<long>(row) * kCandBufLen + c] = id;
  s.buf_cnt[row] = c + 1;
  if (GSKNN_UNLIKELY(c + 1 == kCandBufLen)) sel_flush_row(s, row);
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

using MicroFn = MicroFnT<double>;

/// A micro-kernel plus the register-tile geometry it implements. Packing,
/// blocking validation and edge handling in the driver all derive from
/// mr/nr, so porting to a new ISA is: write the kernel, report its tile
/// (the paper's portability argument, §5).
template <typename T>
struct MicroKernelT {
  MicroFnT<T> fn = nullptr;
  int mr = kMr;
  int nr = kNr;
};

using MicroKernel = MicroKernelT<double>;

/// Portable micro-kernels, one per norm (8×4), both precisions.
MicroFn micro_scalar(Norm norm);
MicroFnT<float> micro_scalar_f32(Norm norm);

#if defined(GSKNN_BUILD_AVX2)
/// AVX2+FMA micro-kernels: 8×4 double, 8×8 float (ℓ2, ℓ1, ℓ∞, cosine; ℓp
/// falls back to scalar).
MicroFn micro_avx2(Norm norm);
MicroKernelT<float> micro_avx2_f32(Norm norm);
#endif

#if defined(GSKNN_BUILD_AVX512)
/// AVX-512F micro-kernels: 16×4 double, 16×8 float. fn == nullptr for norms
/// without a 512-bit implementation.
MicroKernel micro_avx512(Norm norm);
MicroKernelT<float> micro_avx512_f32(Norm norm);
#endif

/// Dispatch by SIMD level (ℓp always resolves to the scalar kernel).
MicroKernel select_micro(SimdLevel level, Norm norm);
MicroKernelT<float> select_micro_f32(SimdLevel level, Norm norm);

/// Precision-generic dispatch used by the templated driver.
template <typename T>
MicroKernelT<T> select_micro_t(SimdLevel level, Norm norm);

template <>
inline MicroKernelT<double> select_micro_t<double>(SimdLevel level,
                                                   Norm norm) {
  return select_micro(level, norm);
}

template <>
inline MicroKernelT<float> select_micro_t<float>(SimdLevel level, Norm norm) {
  return select_micro_f32(level, norm);
}

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

}  // namespace gsknn::core
