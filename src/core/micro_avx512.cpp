// AVX-512F fused micro-kernels (16×4 doubles).
//
// The port the paper's conclusion promises ("porting GSKNN to future x86
// architectures only requires changing the block size and rewriting the
// micro-kernel"): relative to the AVX2 kernel the tile doubles its row
// count (two 8-wide zmm accumulator halves per column, eight independent
// FMA chains), the selection prefilter uses native compare masks, and
// everything else — packing, blocking, variants — is untouched because the
// driver reads the tile geometry from MicroKernel.
#include "micro.hpp"

#if defined(GSKNN_BUILD_AVX512)

#include <immintrin.h>

namespace gsknn::core {

namespace {

inline constexpr int kMr512 = 16;
inline constexpr int kNr512 = 4;

/// In-register 4×4 double transpose on ymm rows (for the query-major tile
/// layout; identical to the AVX2 helper).
GSKNN_ALWAYS_INLINE void transpose4y(__m256d& a, __m256d& b, __m256d& c,
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

GSKNN_ALWAYS_INLINE __m512d abs512(__m512d v) {
  return _mm512_abs_pd(v);
}

template <Norm N>
GSKNN_ALWAYS_INLINE void combine1(__m512d& accA, __m512d& accB, __m512d qa,
                                  __m512d qb, __m512d rb) {
  if constexpr (N == Norm::kL2Sq || N == Norm::kCosine) {
    accA = _mm512_fmadd_pd(qa, rb, accA);
    accB = _mm512_fmadd_pd(qb, rb, accB);
  } else if constexpr (N == Norm::kL1) {
    accA = _mm512_add_pd(accA, abs512(_mm512_sub_pd(qa, rb)));
    accB = _mm512_add_pd(accB, abs512(_mm512_sub_pd(qb, rb)));
  } else {  // kLInf
    accA = _mm512_max_pd(accA, abs512(_mm512_sub_pd(qa, rb)));
    accB = _mm512_max_pd(accB, abs512(_mm512_sub_pd(qb, rb)));
  }
}

/// ℓ2 finish for one column: max(0, q2 + r2 − 2·acc).
GSKNN_ALWAYS_INLINE __m512d finish_l2(__m512d acc, __m512d q2v, __m512d r2b) {
  const __m512d two = _mm512_set1_pd(2.0);
  return _mm512_max_pd(_mm512_setzero_pd(),
                       _mm512_fnmadd_pd(two, acc, _mm512_add_pd(q2v, r2b)));
}

/// Cosine finish for one column: 1 − acc/√(q2·r2), degenerate lanes → 1.
GSKNN_ALWAYS_INLINE __m512d finish_cos(__m512d acc, __m512d q2v, __m512d r2b) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d denom = _mm512_sqrt_pd(_mm512_mul_pd(q2v, r2b));
  const __m512d dist = _mm512_sub_pd(one, _mm512_div_pd(acc, denom));
  const __mmask8 degenerate =
      _mm512_cmp_pd_mask(denom, _mm512_setzero_pd(), _CMP_LE_OQ);
  return _mm512_mask_blend_pd(degenerate, dist, one);
}

/// Selection for one finished column (native compare masks).
GSKNN_ALWAYS_INLINE void select_col512(const SelectCtx& sel, int j,
                                       __m512d colA, __m512d colB,
                                       __m512d rootsA, __m512d rootsB,
                                       int rows) {
  // `<=` (ordered) prefilter: root ties survive to the scalar re-check,
  // which applies the full lexicographic (distance, id) accept; NaN
  // distances never pass. Mirrors the AVX2 and scalar paths exactly.
  const __mmask8 ma = _mm512_cmp_pd_mask(colA, rootsA, _CMP_LE_OQ);
  const __mmask8 mb = _mm512_cmp_pd_mask(colB, rootsB, _CMP_LE_OQ);
  unsigned mask = static_cast<unsigned>(ma) | (static_cast<unsigned>(mb) << 8);
  if (GSKNN_LIKELY(mask == 0)) return;
  alignas(64) double col[kMr512];
  _mm512_store_pd(col, colA);
  _mm512_store_pd(col + 8, colB);
  const int id = sel.cand_ids[j];
  while (mask != 0) {
    const int i = __builtin_ctz(mask);
    mask &= mask - 1;
    if (i < rows && sel_accepts(col[i], id, sel.hd[i], sel.hi[i])) {
      sel_insert(sel, i, col[i], id);
    }
  }
}

/// Gather a root vector for rows [base, base+8) of the tile.
GSKNN_ALWAYS_INLINE __m512d gather_roots(const SelectCtx& sel, int base) {
  return _mm512_set_pd(sel.hd[base + 7][0], sel.hd[base + 6][0],
                       sel.hd[base + 5][0], sel.hd[base + 4][0],
                       sel.hd[base + 3][0], sel.hd[base + 2][0],
                       sel.hd[base + 1][0], sel.hd[base + 0][0]);
}

template <Norm N>
void micro_avx512_impl(int dcur, const double* GSKNN_RESTRICT Qp,
                       const double* GSKNN_RESTRICT Rp,
                       const double* GSKNN_RESTRICT Cin, int ldin,
                       double* GSKNN_RESTRICT Cout, int ldout, bool c_colmajor,
                       const double* GSKNN_RESTRICT q2,
                       const double* GSKNN_RESTRICT r2, bool finish, int rows,
                       int cols, const SelectCtx* sel, double lp) {
  (void)lp;
  // Column j: rows 0..7 in a[j], rows 8..15 in b[j] — named, never arrayed
  // (address-taken accumulators spill; see micro_avx2.cpp).
  __m512d a0, a1, a2, a3, b0, b1, b2, b3;

  if (Cin != nullptr) {
    if (c_colmajor) {
      a0 = _mm512_loadu_pd(Cin + 0L * ldin);
      b0 = _mm512_loadu_pd(Cin + 0L * ldin + 8);
      a1 = _mm512_loadu_pd(Cin + 1L * ldin);
      b1 = _mm512_loadu_pd(Cin + 1L * ldin + 8);
      a2 = _mm512_loadu_pd(Cin + 2L * ldin);
      b2 = _mm512_loadu_pd(Cin + 2L * ldin + 8);
      a3 = _mm512_loadu_pd(Cin + 3L * ldin);
      b3 = _mm512_loadu_pd(Cin + 3L * ldin + 8);
    } else {
      // Query-major: 16 rows of 4; transpose each 4-row group and assemble
      // the zmm halves.
      __m256d g[4][4];
      for (int grp = 0; grp < 4; ++grp) {
        __m256d r0v = _mm256_loadu_pd(Cin + (4L * grp + 0) * ldin);
        __m256d r1v = _mm256_loadu_pd(Cin + (4L * grp + 1) * ldin);
        __m256d r2v = _mm256_loadu_pd(Cin + (4L * grp + 2) * ldin);
        __m256d r3v = _mm256_loadu_pd(Cin + (4L * grp + 3) * ldin);
        transpose4y(r0v, r1v, r2v, r3v);
        g[grp][0] = r0v;  // column 0, rows 4grp..4grp+3
        g[grp][1] = r1v;
        g[grp][2] = r2v;
        g[grp][3] = r3v;
      }
      const auto join = [](__m256d lo, __m256d hi) {
        return _mm512_insertf64x4(_mm512_castpd256_pd512(lo), hi, 1);
      };
      a0 = join(g[0][0], g[1][0]);
      a1 = join(g[0][1], g[1][1]);
      a2 = join(g[0][2], g[1][2]);
      a3 = join(g[0][3], g[1][3]);
      b0 = join(g[2][0], g[3][0]);
      b1 = join(g[2][1], g[3][1]);
      b2 = join(g[2][2], g[3][2]);
      b3 = join(g[2][3], g[3][3]);
    }
  } else {
    a0 = a1 = a2 = a3 = _mm512_setzero_pd();
    b0 = b1 = b2 = b3 = _mm512_setzero_pd();
  }

  // Only the Q panel gets a software prefetch: it is the loop's widest
  // stream (kMr512 doubles per iteration) and the fixed look-ahead keeps its
  // next lines in flight. Prefetching the narrower R panel or the heap roots
  // as well was measured slower (load-port contention in a loop that
  // saturates them; the roots stay L2-resident across jr sweeps anyway) —
  // see EXPERIMENTS.md "Hot-path tuning".
  const double* ap = Qp;
  const double* bp = Rp;
  for (int p = 0; p < dcur; ++p) {
    const __m512d qa = _mm512_load_pd(ap);
    const __m512d qb = _mm512_load_pd(ap + 8);
    GSKNN_PREFETCH_R(ap + kMicroQPrefetchIters * kMr512);
    __m512d rb = _mm512_set1_pd(bp[0]);
    combine1<N>(a0, b0, qa, qb, rb);
    rb = _mm512_set1_pd(bp[1]);
    combine1<N>(a1, b1, qa, qb, rb);
    rb = _mm512_set1_pd(bp[2]);
    combine1<N>(a2, b2, qa, qb, rb);
    rb = _mm512_set1_pd(bp[3]);
    combine1<N>(a3, b3, qa, qb, rb);
    ap += kMr512;
    bp += kNr512;
  }

  if (finish && (N == Norm::kL2Sq || N == Norm::kCosine)) {
    const __m512d q2a = _mm512_load_pd(q2);
    const __m512d q2b = _mm512_load_pd(q2 + 8);
    const auto fin = [&](__m512d acc, __m512d q2v, double r2j) {
      const __m512d r2b = _mm512_set1_pd(r2j);
      if constexpr (N == Norm::kCosine) {
        return finish_cos(acc, q2v, r2b);
      } else {
        return finish_l2(acc, q2v, r2b);
      }
    };
    a0 = fin(a0, q2a, r2[0]);
    b0 = fin(b0, q2b, r2[0]);
    a1 = fin(a1, q2a, r2[1]);
    b1 = fin(b1, q2b, r2[1]);
    a2 = fin(a2, q2a, r2[2]);
    b2 = fin(b2, q2b, r2[2]);
    a3 = fin(a3, q2a, r2[3]);
    b3 = fin(b3, q2b, r2[3]);
  }

  if (sel != nullptr) {
    const __m512d rootsA = gather_roots(*sel, 0);
    const __m512d rootsB = gather_roots(*sel, 8);
    select_col512(*sel, 0, a0, b0, rootsA, rootsB, rows);
    if (cols > 1) select_col512(*sel, 1, a1, b1, rootsA, rootsB, rows);
    if (cols > 2) select_col512(*sel, 2, a2, b2, rootsA, rootsB, rows);
    if (cols > 3) select_col512(*sel, 3, a3, b3, rootsA, rootsB, rows);
  }

  if (Cout != nullptr) {
    if (c_colmajor) {
      _mm512_storeu_pd(Cout + 0L * ldout, a0);
      _mm512_storeu_pd(Cout + 0L * ldout + 8, b0);
      _mm512_storeu_pd(Cout + 1L * ldout, a1);
      _mm512_storeu_pd(Cout + 1L * ldout + 8, b1);
      _mm512_storeu_pd(Cout + 2L * ldout, a2);
      _mm512_storeu_pd(Cout + 2L * ldout + 8, b2);
      _mm512_storeu_pd(Cout + 3L * ldout, a3);
      _mm512_storeu_pd(Cout + 3L * ldout + 8, b3);
    } else {
      const auto low = [](__m512d z) { return _mm512_castpd512_pd256(z); };
      const auto high = [](__m512d z) { return _mm512_extractf64x4_pd(z, 1); };
      for (int grp = 0; grp < 4; ++grp) {
        __m256d c0 = (grp < 2) ? (grp == 0 ? low(a0) : high(a0))
                               : (grp == 2 ? low(b0) : high(b0));
        __m256d c1 = (grp < 2) ? (grp == 0 ? low(a1) : high(a1))
                               : (grp == 2 ? low(b1) : high(b1));
        __m256d c2 = (grp < 2) ? (grp == 0 ? low(a2) : high(a2))
                               : (grp == 2 ? low(b2) : high(b2));
        __m256d c3 = (grp < 2) ? (grp == 0 ? low(a3) : high(a3))
                               : (grp == 2 ? low(b3) : high(b3));
        transpose4y(c0, c1, c2, c3);
        _mm256_storeu_pd(Cout + (4L * grp + 0) * ldout, c0);
        _mm256_storeu_pd(Cout + (4L * grp + 1) * ldout, c1);
        _mm256_storeu_pd(Cout + (4L * grp + 2) * ldout, c2);
        _mm256_storeu_pd(Cout + (4L * grp + 3) * ldout, c3);
      }
    }
  }
}

}  // namespace

MicroKernel micro_avx512(Norm norm) {
  switch (norm) {
    case Norm::kL2Sq:
      return {micro_avx512_impl<Norm::kL2Sq>, kMr512, kNr512};
    case Norm::kL1:
      return {micro_avx512_impl<Norm::kL1>, kMr512, kNr512};
    case Norm::kLInf:
      return {micro_avx512_impl<Norm::kLInf>, kMr512, kNr512};
    case Norm::kCosine:
      return {micro_avx512_impl<Norm::kCosine>, kMr512, kNr512};
    case Norm::kLp:
      return {nullptr, 0, 0};
  }
  return {nullptr, 0, 0};
}


// ---------------------------------------------------------------------------
// Single-precision kernel: 16×8 floats (one 16-wide zmm accumulator per
// column, eight independent FMA chains). Query-major tiles spill through a
// scalar loop (selection-buffer path only).
// ---------------------------------------------------------------------------

namespace {

inline constexpr int kMrF512 = 16;
inline constexpr int kNrF512 = 8;

template <Norm N>
GSKNN_ALWAYS_INLINE __m512 combine1f512(__m512 acc, __m512 qv, __m512 rb) {
  if constexpr (N == Norm::kL2Sq || N == Norm::kCosine) {
    return _mm512_fmadd_ps(qv, rb, acc);
  } else if constexpr (N == Norm::kL1) {
    return _mm512_add_ps(acc, _mm512_abs_ps(_mm512_sub_ps(qv, rb)));
  } else {  // kLInf
    return _mm512_max_ps(acc, _mm512_abs_ps(_mm512_sub_ps(qv, rb)));
  }
}

template <Norm N>
GSKNN_ALWAYS_INLINE __m512 finish1f512(__m512 acc, __m512 q2v, float r2j) {
  const __m512 r2b = _mm512_set1_ps(r2j);
  if constexpr (N == Norm::kL2Sq) {
    const __m512 two = _mm512_set1_ps(2.0f);
    return _mm512_max_ps(_mm512_setzero_ps(),
                         _mm512_fnmadd_ps(two, acc, _mm512_add_ps(q2v, r2b)));
  } else if constexpr (N == Norm::kCosine) {
    const __m512 one = _mm512_set1_ps(1.0f);
    const __m512 denom = _mm512_sqrt_ps(_mm512_mul_ps(q2v, r2b));
    const __m512 dist = _mm512_sub_ps(one, _mm512_div_ps(acc, denom));
    const __mmask16 degenerate =
        _mm512_cmp_ps_mask(denom, _mm512_setzero_ps(), _CMP_LE_OQ);
    return _mm512_mask_blend_ps(degenerate, dist, one);
  } else {
    return acc;
  }
}

GSKNN_ALWAYS_INLINE void select_colf512(const SelectCtxT<float>& sel, int j,
                                        __m512 col, __m512 roots, int rows) {
  unsigned mask = _mm512_cmp_ps_mask(col, roots, _CMP_LE_OQ);
  if (GSKNN_LIKELY(mask == 0)) return;
  alignas(64) float vals[kMrF512];
  _mm512_store_ps(vals, col);
  const int id = sel.cand_ids[j];
  while (mask != 0) {
    const int i = __builtin_ctz(mask);
    mask &= mask - 1;
    if (i < rows && sel_accepts(vals[i], id, sel.hd[i], sel.hi[i])) {
      sel_insert(sel, i, vals[i], id);
    }
  }
}

GSKNN_ALWAYS_INLINE __m512 gather_roots_f(const SelectCtxT<float>& sel) {
  alignas(64) float r[kMrF512];
  for (int i = 0; i < kMrF512; ++i) r[i] = sel.hd[i][0];
  return _mm512_load_ps(r);
}

template <Norm N>
void micro_avx512_f32_impl(int dcur, const float* GSKNN_RESTRICT Qp,
                           const float* GSKNN_RESTRICT Rp,
                           const float* GSKNN_RESTRICT Cin, int ldin,
                           float* GSKNN_RESTRICT Cout, int ldout,
                           bool c_colmajor, const float* GSKNN_RESTRICT q2,
                           const float* GSKNN_RESTRICT r2, bool finish,
                           int rows, int cols, const SelectCtxT<float>* sel,
                           double lp) {
  (void)lp;
  __m512 a0, a1, a2, a3, a4, a5, a6, a7;  // column j = 16 tile rows

  if (Cin != nullptr) {
    if (c_colmajor) {
      a0 = _mm512_loadu_ps(Cin + 0L * ldin);
      a1 = _mm512_loadu_ps(Cin + 1L * ldin);
      a2 = _mm512_loadu_ps(Cin + 2L * ldin);
      a3 = _mm512_loadu_ps(Cin + 3L * ldin);
      a4 = _mm512_loadu_ps(Cin + 4L * ldin);
      a5 = _mm512_loadu_ps(Cin + 5L * ldin);
      a6 = _mm512_loadu_ps(Cin + 6L * ldin);
      a7 = _mm512_loadu_ps(Cin + 7L * ldin);
    } else {
      alignas(64) float t[kNrF512][kMrF512];
      for (int i = 0; i < kMrF512; ++i) {
        for (int j = 0; j < kNrF512; ++j) {
          t[j][i] = Cin[static_cast<long>(i) * ldin + j];
        }
      }
      a0 = _mm512_load_ps(t[0]);
      a1 = _mm512_load_ps(t[1]);
      a2 = _mm512_load_ps(t[2]);
      a3 = _mm512_load_ps(t[3]);
      a4 = _mm512_load_ps(t[4]);
      a5 = _mm512_load_ps(t[5]);
      a6 = _mm512_load_ps(t[6]);
      a7 = _mm512_load_ps(t[7]);
    }
  } else {
    a0 = a1 = a2 = a3 = _mm512_setzero_ps();
    a4 = a5 = a6 = a7 = _mm512_setzero_ps();
  }

  // Q-panel look-ahead only — see the f64 kernel's note.
  const float* ap = Qp;
  const float* bp = Rp;
  for (int p = 0; p < dcur; ++p) {
    const __m512 qv = _mm512_load_ps(ap);
    GSKNN_PREFETCH_R(ap + kMicroQPrefetchIters * kMrF512);
    a0 = combine1f512<N>(a0, qv, _mm512_set1_ps(bp[0]));
    a1 = combine1f512<N>(a1, qv, _mm512_set1_ps(bp[1]));
    a2 = combine1f512<N>(a2, qv, _mm512_set1_ps(bp[2]));
    a3 = combine1f512<N>(a3, qv, _mm512_set1_ps(bp[3]));
    a4 = combine1f512<N>(a4, qv, _mm512_set1_ps(bp[4]));
    a5 = combine1f512<N>(a5, qv, _mm512_set1_ps(bp[5]));
    a6 = combine1f512<N>(a6, qv, _mm512_set1_ps(bp[6]));
    a7 = combine1f512<N>(a7, qv, _mm512_set1_ps(bp[7]));
    ap += kMrF512;
    bp += kNrF512;
  }

  if (finish && (N == Norm::kL2Sq || N == Norm::kCosine)) {
    const __m512 q2v = _mm512_load_ps(q2);
    a0 = finish1f512<N>(a0, q2v, r2[0]);
    a1 = finish1f512<N>(a1, q2v, r2[1]);
    a2 = finish1f512<N>(a2, q2v, r2[2]);
    a3 = finish1f512<N>(a3, q2v, r2[3]);
    a4 = finish1f512<N>(a4, q2v, r2[4]);
    a5 = finish1f512<N>(a5, q2v, r2[5]);
    a6 = finish1f512<N>(a6, q2v, r2[6]);
    a7 = finish1f512<N>(a7, q2v, r2[7]);
  }

  if (sel != nullptr) {
    const __m512 roots = gather_roots_f(*sel);
    select_colf512(*sel, 0, a0, roots, rows);
    if (cols > 1) select_colf512(*sel, 1, a1, roots, rows);
    if (cols > 2) select_colf512(*sel, 2, a2, roots, rows);
    if (cols > 3) select_colf512(*sel, 3, a3, roots, rows);
    if (cols > 4) select_colf512(*sel, 4, a4, roots, rows);
    if (cols > 5) select_colf512(*sel, 5, a5, roots, rows);
    if (cols > 6) select_colf512(*sel, 6, a6, roots, rows);
    if (cols > 7) select_colf512(*sel, 7, a7, roots, rows);
  }

  if (Cout != nullptr) {
    if (c_colmajor) {
      _mm512_storeu_ps(Cout + 0L * ldout, a0);
      _mm512_storeu_ps(Cout + 1L * ldout, a1);
      _mm512_storeu_ps(Cout + 2L * ldout, a2);
      _mm512_storeu_ps(Cout + 3L * ldout, a3);
      _mm512_storeu_ps(Cout + 4L * ldout, a4);
      _mm512_storeu_ps(Cout + 5L * ldout, a5);
      _mm512_storeu_ps(Cout + 6L * ldout, a6);
      _mm512_storeu_ps(Cout + 7L * ldout, a7);
    } else {
      alignas(64) float t[kNrF512][kMrF512];
      _mm512_store_ps(t[0], a0);
      _mm512_store_ps(t[1], a1);
      _mm512_store_ps(t[2], a2);
      _mm512_store_ps(t[3], a3);
      _mm512_store_ps(t[4], a4);
      _mm512_store_ps(t[5], a5);
      _mm512_store_ps(t[6], a6);
      _mm512_store_ps(t[7], a7);
      for (int i = 0; i < kMrF512; ++i) {
        for (int j = 0; j < kNrF512; ++j) {
          Cout[static_cast<long>(i) * ldout + j] = t[j][i];
        }
      }
    }
  }
}

}  // namespace

MicroKernelT<float> micro_avx512_f32(Norm norm) {
  switch (norm) {
    case Norm::kL2Sq:
      return {micro_avx512_f32_impl<Norm::kL2Sq>, kMrF512, kNrF512};
    case Norm::kL1:
      return {micro_avx512_f32_impl<Norm::kL1>, kMrF512, kNrF512};
    case Norm::kLInf:
      return {micro_avx512_f32_impl<Norm::kLInf>, kMrF512, kNrF512};
    case Norm::kCosine:
      return {micro_avx512_f32_impl<Norm::kCosine>, kMrF512, kNrF512};
    case Norm::kLp:
      return {nullptr, 0, 0};
  }
  return {nullptr, 0, 0};
}

}  // namespace gsknn::core

#endif  // GSKNN_BUILD_AVX512
