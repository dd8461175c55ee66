// AVX2+FMA fused micro-kernels (ℓ2, ℓ1, ℓ∞).
//
// The rank-dc update mirrors the dgemm micro-kernel in src/blas (same
// column-major accumulators, same broadcast-FMA schema) so GSKNN-vs-GEMM
// comparisons measure fusion, not kernel quality. On top of it:
//   * the distance finish runs in registers (q2 row-vector + broadcast r2,
//     one FNMADD per accumulator);
//   * the Var#1 selection prefilter is the paper's vectorized root compare:
//     per column, VCMPPD against a gathered root vector; tiles whose masks
//     are empty are discarded without a single store — the best case in
//     which GSKNN never materializes C;
//   * loads/stores of the query-major Cc tile go through 4×4 register
//     transposes.
//
// All eight accumulators are *named* locals, never placed in an array or
// pointed at: address-taken __m256d arrays force GCC to keep a stack copy
// live and re-store every accumulator on each depth step, which costs ~20%
// of peak. (Found the hard way; see the repo history.)
#include "micro.hpp"

#if defined(GSKNN_BUILD_AVX2)

#include <immintrin.h>

namespace gsknn::core {

namespace {

/// In-register 4×4 double transpose: four row vectors in, their columns out.
GSKNN_ALWAYS_INLINE void transpose4(__m256d& a, __m256d& b, __m256d& c,
                                    __m256d& d) {
  const __m256d t0 = _mm256_unpacklo_pd(a, b);
  const __m256d t1 = _mm256_unpackhi_pd(a, b);
  const __m256d t2 = _mm256_unpacklo_pd(c, d);
  const __m256d t3 = _mm256_unpackhi_pd(c, d);
  a = _mm256_permute2f128_pd(t0, t2, 0x20);
  b = _mm256_permute2f128_pd(t1, t3, 0x20);
  c = _mm256_permute2f128_pd(t0, t2, 0x31);
  d = _mm256_permute2f128_pd(t1, t3, 0x31);
}

GSKNN_ALWAYS_INLINE __m256d abs_pd(__m256d v) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  return _mm256_andnot_pd(sign, v);
}

/// One rank-1 step of the norm-specific combine for a single column.
template <Norm N>
GSKNN_ALWAYS_INLINE void combine1(__m256d& accLo, __m256d& accHi, __m256d qlo,
                                  __m256d qhi, __m256d rb) {
  if constexpr (N == Norm::kL2Sq || N == Norm::kCosine) {
    accLo = _mm256_fmadd_pd(qlo, rb, accLo);
    accHi = _mm256_fmadd_pd(qhi, rb, accHi);
  } else if constexpr (N == Norm::kL1) {
    accLo = _mm256_add_pd(accLo, abs_pd(_mm256_sub_pd(qlo, rb)));
    accHi = _mm256_add_pd(accHi, abs_pd(_mm256_sub_pd(qhi, rb)));
  } else {  // kLInf
    accLo = _mm256_max_pd(accLo, abs_pd(_mm256_sub_pd(qlo, rb)));
    accHi = _mm256_max_pd(accHi, abs_pd(_mm256_sub_pd(qhi, rb)));
  }
}

/// Selection for one finished column j (paper's vectorized root compare +
/// scalar re-checked inserts).
GSKNN_ALWAYS_INLINE void select_col(const SelectCtx& sel, int j, __m256d colLo,
                                    __m256d colHi, __m256d rootsLo,
                                    __m256d rootsHi, int rows) {
  const int mlo =
      _mm256_movemask_pd(_mm256_cmp_pd(colLo, rootsLo, _CMP_LE_OQ));
  const int mhi =
      _mm256_movemask_pd(_mm256_cmp_pd(colHi, rootsHi, _CMP_LE_OQ));
  unsigned mask =
      static_cast<unsigned>(mlo) | (static_cast<unsigned>(mhi) << 4);
  if (GSKNN_LIKELY(mask == 0)) return;
  alignas(32) double col[kMr];
  _mm256_store_pd(col, colLo);
  _mm256_store_pd(col + 4, colHi);
  const int id = sel.cand_ids[j];
  while (mask != 0) {
    const int i = __builtin_ctz(mask);
    mask &= mask - 1;
    // Re-check against the live root: earlier inserts (including in this
    // tile) may have shrunk it since the vector compare, and the `<=`
    // prefilter admits root ties the lexicographic rule must arbitrate.
    if (i < rows && sel_accepts(col[i], id, sel.hd[i], sel.hi[i])) {
      sel_insert(sel, i, col[i], id);
    }
  }
}

template <Norm N>
void micro_avx2_impl(int dcur, const double* GSKNN_RESTRICT Qp,
                     const double* GSKNN_RESTRICT Rp,
                     const double* GSKNN_RESTRICT Cin, int ldin,
                     double* GSKNN_RESTRICT Cout, int ldout, bool c_colmajor,
                     const double* GSKNN_RESTRICT q2,
                     const double* GSKNN_RESTRICT r2, bool finish, int rows,
                     int cols, const SelectCtx* sel, double lp) {
  (void)lp;
  __m256d lo0, lo1, lo2, lo3;  // column j, tile rows 0..3
  __m256d hi0, hi1, hi2, hi3;  // column j, tile rows 4..7

  if (Cin != nullptr) {
    if (c_colmajor) {
      // Column-major tile: each column is two contiguous 4-vectors —
      // matches the accumulator layout directly.
      lo0 = _mm256_loadu_pd(Cin + 0L * ldin);
      hi0 = _mm256_loadu_pd(Cin + 0L * ldin + 4);
      lo1 = _mm256_loadu_pd(Cin + 1L * ldin);
      hi1 = _mm256_loadu_pd(Cin + 1L * ldin + 4);
      lo2 = _mm256_loadu_pd(Cin + 2L * ldin);
      hi2 = _mm256_loadu_pd(Cin + 2L * ldin + 4);
      lo3 = _mm256_loadu_pd(Cin + 3L * ldin);
      hi3 = _mm256_loadu_pd(Cin + 3L * ldin + 4);
    } else {
      // Query-major rows are contiguous 4-vectors over j; transpose each
      // 4-row half into the column-major accumulator layout.
      lo0 = _mm256_loadu_pd(Cin + 0L * ldin);
      lo1 = _mm256_loadu_pd(Cin + 1L * ldin);
      lo2 = _mm256_loadu_pd(Cin + 2L * ldin);
      lo3 = _mm256_loadu_pd(Cin + 3L * ldin);
      transpose4(lo0, lo1, lo2, lo3);
      hi0 = _mm256_loadu_pd(Cin + 4L * ldin);
      hi1 = _mm256_loadu_pd(Cin + 5L * ldin);
      hi2 = _mm256_loadu_pd(Cin + 6L * ldin);
      hi3 = _mm256_loadu_pd(Cin + 7L * ldin);
      transpose4(hi0, hi1, hi2, hi3);
    }
  } else {
    lo0 = lo1 = lo2 = lo3 = _mm256_setzero_pd();
    hi0 = hi1 = hi2 = hi3 = _mm256_setzero_pd();
  }

  // Only the Q panel gets a software prefetch: it is the loop's widest
  // stream (kMr doubles per iteration) and the fixed look-ahead keeps its
  // next lines in flight. Prefetching the narrower R panel or the heap roots
  // as well was measured slower (load-port contention in a loop that
  // saturates them; the roots stay L2-resident across jr sweeps anyway) —
  // see EXPERIMENTS.md "Hot-path tuning".
  const double* a = Qp;
  const double* b = Rp;
  for (int p = 0; p < dcur; ++p) {
    const __m256d qlo = _mm256_load_pd(a);
    const __m256d qhi = _mm256_load_pd(a + 4);
    GSKNN_PREFETCH_R(a + kMicroQPrefetchIters * kMr);
    __m256d rb = _mm256_broadcast_sd(b + 0);
    combine1<N>(lo0, hi0, qlo, qhi, rb);
    rb = _mm256_broadcast_sd(b + 1);
    combine1<N>(lo1, hi1, qlo, qhi, rb);
    rb = _mm256_broadcast_sd(b + 2);
    combine1<N>(lo2, hi2, qlo, qhi, rb);
    rb = _mm256_broadcast_sd(b + 3);
    combine1<N>(lo3, hi3, qlo, qhi, rb);
    a += kMr;
    b += kNr;
  }

  if (finish && N == Norm::kL2Sq) {
    // dist = max(0, q2 + r2 − 2·acc); padded lanes get finite garbage.
    const __m256d q2lo = _mm256_load_pd(q2);
    const __m256d q2hi = _mm256_load_pd(q2 + 4);
    const __m256d two = _mm256_set1_pd(2.0);
    const __m256d zero = _mm256_setzero_pd();
    __m256d r2b = _mm256_broadcast_sd(r2 + 0);
    lo0 = _mm256_max_pd(zero,
                        _mm256_fnmadd_pd(two, lo0, _mm256_add_pd(q2lo, r2b)));
    hi0 = _mm256_max_pd(zero,
                        _mm256_fnmadd_pd(two, hi0, _mm256_add_pd(q2hi, r2b)));
    r2b = _mm256_broadcast_sd(r2 + 1);
    lo1 = _mm256_max_pd(zero,
                        _mm256_fnmadd_pd(two, lo1, _mm256_add_pd(q2lo, r2b)));
    hi1 = _mm256_max_pd(zero,
                        _mm256_fnmadd_pd(two, hi1, _mm256_add_pd(q2hi, r2b)));
    r2b = _mm256_broadcast_sd(r2 + 2);
    lo2 = _mm256_max_pd(zero,
                        _mm256_fnmadd_pd(two, lo2, _mm256_add_pd(q2lo, r2b)));
    hi2 = _mm256_max_pd(zero,
                        _mm256_fnmadd_pd(two, hi2, _mm256_add_pd(q2hi, r2b)));
    r2b = _mm256_broadcast_sd(r2 + 3);
    lo3 = _mm256_max_pd(zero,
                        _mm256_fnmadd_pd(two, lo3, _mm256_add_pd(q2lo, r2b)));
    hi3 = _mm256_max_pd(zero,
                        _mm256_fnmadd_pd(two, hi3, _mm256_add_pd(q2hi, r2b)));
  }

  if (finish && N == Norm::kCosine) {
    // 1 − qᵀr/√(‖q‖²·‖r‖²). Zero-norm lanes (including zero-padded edge
    // lanes) would divide by zero; blending with the denominator==0 mask
    // pins them at distance 1.
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d zero = _mm256_setzero_pd();
    const __m256d q2lo = _mm256_load_pd(q2);
    const __m256d q2hi = _mm256_load_pd(q2 + 4);
    const auto fin = [&](__m256d acc, __m256d q2v, __m256d r2b) {
      const __m256d denom = _mm256_sqrt_pd(_mm256_mul_pd(q2v, r2b));
      const __m256d dist = _mm256_sub_pd(one, _mm256_div_pd(acc, denom));
      const __m256d degenerate = _mm256_cmp_pd(denom, zero, _CMP_LE_OQ);
      return _mm256_blendv_pd(dist, one, degenerate);
    };
    __m256d r2b = _mm256_broadcast_sd(r2 + 0);
    lo0 = fin(lo0, q2lo, r2b);
    hi0 = fin(hi0, q2hi, r2b);
    r2b = _mm256_broadcast_sd(r2 + 1);
    lo1 = fin(lo1, q2lo, r2b);
    hi1 = fin(hi1, q2hi, r2b);
    r2b = _mm256_broadcast_sd(r2 + 2);
    lo2 = fin(lo2, q2lo, r2b);
    hi2 = fin(hi2, q2hi, r2b);
    r2b = _mm256_broadcast_sd(r2 + 3);
    lo3 = fin(lo3, q2lo, r2b);
    hi3 = fin(hi3, q2hi, r2b);
  }

  if (sel != nullptr) {
    // Roots for invalid rows are -inf sentinels installed by the driver, so
    // padded lanes never pass the compare. The roots vector is gathered once
    // per tile; staleness only admits candidates the re-check rejects.
    const __m256d rootsLo = _mm256_set_pd(sel->hd[3][0], sel->hd[2][0],
                                          sel->hd[1][0], sel->hd[0][0]);
    const __m256d rootsHi = _mm256_set_pd(sel->hd[7][0], sel->hd[6][0],
                                          sel->hd[5][0], sel->hd[4][0]);
    select_col(*sel, 0, lo0, hi0, rootsLo, rootsHi, rows);
    if (cols > 1) select_col(*sel, 1, lo1, hi1, rootsLo, rootsHi, rows);
    if (cols > 2) select_col(*sel, 2, lo2, hi2, rootsLo, rootsHi, rows);
    if (cols > 3) select_col(*sel, 3, lo3, hi3, rootsLo, rootsHi, rows);
  }

  if (Cout != nullptr) {
    if (c_colmajor) {
      _mm256_storeu_pd(Cout + 0L * ldout, lo0);
      _mm256_storeu_pd(Cout + 0L * ldout + 4, hi0);
      _mm256_storeu_pd(Cout + 1L * ldout, lo1);
      _mm256_storeu_pd(Cout + 1L * ldout + 4, hi1);
      _mm256_storeu_pd(Cout + 2L * ldout, lo2);
      _mm256_storeu_pd(Cout + 2L * ldout + 4, hi2);
      _mm256_storeu_pd(Cout + 3L * ldout, lo3);
      _mm256_storeu_pd(Cout + 3L * ldout + 4, hi3);
    } else {
      transpose4(lo0, lo1, lo2, lo3);
      _mm256_storeu_pd(Cout + 0L * ldout, lo0);
      _mm256_storeu_pd(Cout + 1L * ldout, lo1);
      _mm256_storeu_pd(Cout + 2L * ldout, lo2);
      _mm256_storeu_pd(Cout + 3L * ldout, lo3);
      transpose4(hi0, hi1, hi2, hi3);
      _mm256_storeu_pd(Cout + 4L * ldout, hi0);
      _mm256_storeu_pd(Cout + 5L * ldout, hi1);
      _mm256_storeu_pd(Cout + 6L * ldout, hi2);
      _mm256_storeu_pd(Cout + 7L * ldout, hi3);
    }
  }
}

}  // namespace

MicroFn micro_avx2(Norm norm) {
  switch (norm) {
    case Norm::kL2Sq:
      return micro_avx2_impl<Norm::kL2Sq>;
    case Norm::kL1:
      return micro_avx2_impl<Norm::kL1>;
    case Norm::kLInf:
      return micro_avx2_impl<Norm::kLInf>;
    case Norm::kCosine:
      return micro_avx2_impl<Norm::kCosine>;
    case Norm::kLp:
      return micro_scalar(Norm::kLp);
  }
  return micro_avx2_impl<Norm::kL2Sq>;
}


// ---------------------------------------------------------------------------
// Single-precision kernel: 8×8 floats (one 8-wide ymm accumulator per
// column, eight independent FMA chains). Query-major Cc tiles go through a
// scalar spill — the float path only uses them for the Var#5/6
// selection buffers, where the store is a vanishing fraction of the work.
// ---------------------------------------------------------------------------

namespace {

inline constexpr int kMrF = 8;
inline constexpr int kNrF = 8;

GSKNN_ALWAYS_INLINE __m256 abs_ps(__m256 v) {
  return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v);
}

template <Norm N>
GSKNN_ALWAYS_INLINE __m256 combine1f(__m256 acc, __m256 qv, __m256 rb) {
  if constexpr (N == Norm::kL2Sq || N == Norm::kCosine) {
    return _mm256_fmadd_ps(qv, rb, acc);
  } else if constexpr (N == Norm::kL1) {
    return _mm256_add_ps(acc, abs_ps(_mm256_sub_ps(qv, rb)));
  } else {  // kLInf
    return _mm256_max_ps(acc, abs_ps(_mm256_sub_ps(qv, rb)));
  }
}

template <Norm N>
GSKNN_ALWAYS_INLINE __m256 finish1f(__m256 acc, __m256 q2v, float r2j) {
  const __m256 r2b = _mm256_set1_ps(r2j);
  if constexpr (N == Norm::kL2Sq) {
    const __m256 two = _mm256_set1_ps(2.0f);
    return _mm256_max_ps(_mm256_setzero_ps(),
                         _mm256_fnmadd_ps(two, acc, _mm256_add_ps(q2v, r2b)));
  } else if constexpr (N == Norm::kCosine) {
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 denom = _mm256_sqrt_ps(_mm256_mul_ps(q2v, r2b));
    const __m256 dist = _mm256_sub_ps(one, _mm256_div_ps(acc, denom));
    const __m256 degenerate =
        _mm256_cmp_ps(denom, _mm256_setzero_ps(), _CMP_LE_OQ);
    return _mm256_blendv_ps(dist, one, degenerate);
  } else {
    return acc;
  }
}

GSKNN_ALWAYS_INLINE void select_colf(const SelectCtxT<float>& sel, int j,
                                     __m256 col, __m256 roots, int rows) {
  unsigned mask = static_cast<unsigned>(
      _mm256_movemask_ps(_mm256_cmp_ps(col, roots, _CMP_LE_OQ)));
  if (GSKNN_LIKELY(mask == 0)) return;
  alignas(32) float vals[kMrF];
  _mm256_store_ps(vals, col);
  const int id = sel.cand_ids[j];
  while (mask != 0) {
    const int i = __builtin_ctz(mask);
    mask &= mask - 1;
    if (i < rows && sel_accepts(vals[i], id, sel.hd[i], sel.hi[i])) {
      sel_insert(sel, i, vals[i], id);
    }
  }
}

template <Norm N>
void micro_avx2_f32_impl(int dcur, const float* GSKNN_RESTRICT Qp,
                         const float* GSKNN_RESTRICT Rp,
                         const float* GSKNN_RESTRICT Cin, int ldin,
                         float* GSKNN_RESTRICT Cout, int ldout,
                         bool c_colmajor, const float* GSKNN_RESTRICT q2,
                         const float* GSKNN_RESTRICT r2, bool finish,
                         int rows, int cols, const SelectCtxT<float>* sel,
                         double lp) {
  (void)lp;
  __m256 a0, a1, a2, a3, a4, a5, a6, a7;  // column j = 8 tile rows

  if (Cin != nullptr) {
    if (c_colmajor) {
      a0 = _mm256_loadu_ps(Cin + 0L * ldin);
      a1 = _mm256_loadu_ps(Cin + 1L * ldin);
      a2 = _mm256_loadu_ps(Cin + 2L * ldin);
      a3 = _mm256_loadu_ps(Cin + 3L * ldin);
      a4 = _mm256_loadu_ps(Cin + 4L * ldin);
      a5 = _mm256_loadu_ps(Cin + 5L * ldin);
      a6 = _mm256_loadu_ps(Cin + 6L * ldin);
      a7 = _mm256_loadu_ps(Cin + 7L * ldin);
    } else {
      alignas(32) float t[kNrF][kMrF];
      for (int i = 0; i < kMrF; ++i) {
        for (int j = 0; j < kNrF; ++j) {
          t[j][i] = Cin[static_cast<long>(i) * ldin + j];
        }
      }
      a0 = _mm256_load_ps(t[0]);
      a1 = _mm256_load_ps(t[1]);
      a2 = _mm256_load_ps(t[2]);
      a3 = _mm256_load_ps(t[3]);
      a4 = _mm256_load_ps(t[4]);
      a5 = _mm256_load_ps(t[5]);
      a6 = _mm256_load_ps(t[6]);
      a7 = _mm256_load_ps(t[7]);
    }
  } else {
    a0 = a1 = a2 = a3 = _mm256_setzero_ps();
    a4 = a5 = a6 = a7 = _mm256_setzero_ps();
  }

  // Q-panel look-ahead only — see the f64 kernel's note.
  const float* ap = Qp;
  const float* bp = Rp;
  for (int p = 0; p < dcur; ++p) {
    const __m256 qv = _mm256_load_ps(ap);
    GSKNN_PREFETCH_R(ap + kMicroQPrefetchIters * kMrF);
    a0 = combine1f<N>(a0, qv, _mm256_broadcast_ss(bp + 0));
    a1 = combine1f<N>(a1, qv, _mm256_broadcast_ss(bp + 1));
    a2 = combine1f<N>(a2, qv, _mm256_broadcast_ss(bp + 2));
    a3 = combine1f<N>(a3, qv, _mm256_broadcast_ss(bp + 3));
    a4 = combine1f<N>(a4, qv, _mm256_broadcast_ss(bp + 4));
    a5 = combine1f<N>(a5, qv, _mm256_broadcast_ss(bp + 5));
    a6 = combine1f<N>(a6, qv, _mm256_broadcast_ss(bp + 6));
    a7 = combine1f<N>(a7, qv, _mm256_broadcast_ss(bp + 7));
    ap += kMrF;
    bp += kNrF;
  }

  if (finish && (N == Norm::kL2Sq || N == Norm::kCosine)) {
    const __m256 q2v = _mm256_load_ps(q2);
    a0 = finish1f<N>(a0, q2v, r2[0]);
    a1 = finish1f<N>(a1, q2v, r2[1]);
    a2 = finish1f<N>(a2, q2v, r2[2]);
    a3 = finish1f<N>(a3, q2v, r2[3]);
    a4 = finish1f<N>(a4, q2v, r2[4]);
    a5 = finish1f<N>(a5, q2v, r2[5]);
    a6 = finish1f<N>(a6, q2v, r2[6]);
    a7 = finish1f<N>(a7, q2v, r2[7]);
  }

  if (sel != nullptr) {
    const __m256 roots = _mm256_set_ps(
        sel->hd[7][0], sel->hd[6][0], sel->hd[5][0], sel->hd[4][0],
        sel->hd[3][0], sel->hd[2][0], sel->hd[1][0], sel->hd[0][0]);
    select_colf(*sel, 0, a0, roots, rows);
    if (cols > 1) select_colf(*sel, 1, a1, roots, rows);
    if (cols > 2) select_colf(*sel, 2, a2, roots, rows);
    if (cols > 3) select_colf(*sel, 3, a3, roots, rows);
    if (cols > 4) select_colf(*sel, 4, a4, roots, rows);
    if (cols > 5) select_colf(*sel, 5, a5, roots, rows);
    if (cols > 6) select_colf(*sel, 6, a6, roots, rows);
    if (cols > 7) select_colf(*sel, 7, a7, roots, rows);
  }

  if (Cout != nullptr) {
    if (c_colmajor) {
      _mm256_storeu_ps(Cout + 0L * ldout, a0);
      _mm256_storeu_ps(Cout + 1L * ldout, a1);
      _mm256_storeu_ps(Cout + 2L * ldout, a2);
      _mm256_storeu_ps(Cout + 3L * ldout, a3);
      _mm256_storeu_ps(Cout + 4L * ldout, a4);
      _mm256_storeu_ps(Cout + 5L * ldout, a5);
      _mm256_storeu_ps(Cout + 6L * ldout, a6);
      _mm256_storeu_ps(Cout + 7L * ldout, a7);
    } else {
      alignas(32) float t[kNrF][kMrF];
      _mm256_store_ps(t[0], a0);
      _mm256_store_ps(t[1], a1);
      _mm256_store_ps(t[2], a2);
      _mm256_store_ps(t[3], a3);
      _mm256_store_ps(t[4], a4);
      _mm256_store_ps(t[5], a5);
      _mm256_store_ps(t[6], a6);
      _mm256_store_ps(t[7], a7);
      for (int i = 0; i < kMrF; ++i) {
        for (int j = 0; j < kNrF; ++j) {
          Cout[static_cast<long>(i) * ldout + j] = t[j][i];
        }
      }
    }
  }
}

}  // namespace

MicroKernelT<float> micro_avx2_f32(Norm norm) {
  switch (norm) {
    case Norm::kL2Sq:
      return {micro_avx2_f32_impl<Norm::kL2Sq>, kMrF, kNrF};
    case Norm::kL1:
      return {micro_avx2_f32_impl<Norm::kL1>, kMrF, kNrF};
    case Norm::kLInf:
      return {micro_avx2_f32_impl<Norm::kLInf>, kMrF, kNrF};
    case Norm::kCosine:
      return {micro_avx2_f32_impl<Norm::kCosine>, kMrF, kNrF};
    case Norm::kLp:
      return {nullptr, 0, 0};
  }
  return {nullptr, 0, 0};
}

}  // namespace gsknn::core

#endif  // GSKNN_BUILD_AVX2
