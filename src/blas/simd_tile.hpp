// One register tile for every vectorized micro-kernel (internal).
//
// A tile is MV vectors of L lanes by NR columns: acc[j][v] holds rows
// [v·L, v·L + L) of column j, so one kernel covers every shape of the
// broadcast-FMA schema (paper §2.4): per depth step, MV aligned loads of the
// packed A/Q sliver, NR broadcasts of the B/R sliver and MV·NR combines.
// The fused GSKNN kernels (src/core/micro_simd.hpp) and the GEMM kernels
// below share this tile, its rank-dc loop and its C loads and stores, so
// the GEMM reference runs the same micro-kernel code as GSKNN (DESIGN.md §2).
// Porting to a new ISA is a traits struct (vector type, lane count, a dozen
// operations); a new tile shape is one instantiation.
#pragma once

#include <immintrin.h>

#include <type_traits>
#include <utility>

#include "gsknn/common/arch.hpp"
#include "gsknn/common/macros.hpp"

namespace gsknn::simd {

/// f(integral_constant<int, 0>), …, f(integral_constant<int, N − 1>), in
/// order. The index is a constant expression inside f.
template <int N, class F>
GSKNN_ALWAYS_INLINE void unroll(F&& f) {
  [&]<int... I>(std::integer_sequence<int, I...>) GSKNN_INLINE_LAMBDA {
    (f(std::integral_constant<int, I>{}), ...);
  }(std::make_integer_sequence<int, N>{});
}

// Traits: one struct per ISA × precision. The operations every struct
// spells the same way come from GSKNN_SIMD_OPS (P: intrinsic prefix, S:
// element suffix); the rest differ per ISA. le() is the ordered `<=`
// compare as a lane bitmask (NaN lanes clear); blend_le(x, y, a, b) takes y
// in lanes where a <= b and x elsewhere; max returns its second operand on
// NaN (vmaxpd), which keeps NaN distances NaN through the ℓ∞ accumulation
// and the ℓ2 clamp. The f64 structs add the query-major hook: quarter(v, h)
// is the h-th 4-lane quarter of v, join(lo, hi) a vector from its first and
// last quarters.
#define GSKNN_SIMD_OPS(P, S)                                              \
  static Reg zero() { return P##_setzero_##S(); }                         \
  static Reg set1(T x) { return P##_set1_##S(x); }                        \
  static Reg load(const T* p) { return P##_load_##S(p); }                 \
  static Reg loadu(const T* p) { return P##_loadu_##S(p); }               \
  static void store(T* p, Reg v) { P##_store_##S(p, v); }                 \
  static void storeu(T* p, Reg v) { P##_storeu_##S(p, v); }               \
  static Reg add(Reg a, Reg b) { return P##_add_##S(a, b); }              \
  static Reg sub(Reg a, Reg b) { return P##_sub_##S(a, b); }              \
  static Reg mul(Reg a, Reg b) { return P##_mul_##S(a, b); }              \
  static Reg div(Reg a, Reg b) { return P##_div_##S(a, b); }              \
  static Reg max(Reg a, Reg b) { return P##_max_##S(a, b); }              \
  static Reg sqrt(Reg a) { return P##_sqrt_##S(a); }                      \
  static Reg fmadd(Reg a, Reg b, Reg c) { return P##_fmadd_##S(a, b, c); } \
  static Reg fnmadd(Reg a, Reg b, Reg c) { return P##_fnmadd_##S(a, b, c); }

#if defined(__AVX2__) && defined(__FMA__)

struct Avx2F64 {
  using T = double;
  using Reg = __m256d;
  static constexpr int kLanes = 4;
  GSKNN_SIMD_OPS(_mm256, pd)
  static Reg abs(Reg a) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a); }
  static unsigned le(Reg a, Reg b) {
    return _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_LE_OQ));
  }
  static Reg blend_le(Reg x, Reg y, Reg a, Reg b) {
    return _mm256_blendv_pd(x, y, _mm256_cmp_pd(a, b, _CMP_LE_OQ));
  }
  static __m256d quarter(Reg v, int) { return v; }
  static Reg join(__m256d lo, __m256d) { return lo; }
};

struct Avx2F32 {
  using T = float;
  using Reg = __m256;
  static constexpr int kLanes = 8;
  GSKNN_SIMD_OPS(_mm256, ps)
  static Reg abs(Reg a) { return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), a); }
  static unsigned le(Reg a, Reg b) {
    return _mm256_movemask_ps(_mm256_cmp_ps(a, b, _CMP_LE_OQ));
  }
  static Reg blend_le(Reg x, Reg y, Reg a, Reg b) {
    return _mm256_blendv_ps(x, y, _mm256_cmp_ps(a, b, _CMP_LE_OQ));
  }
};

// In-register L×L transposes, one per lane count: L row vectors in, their
// columns out. The query-major tile loads and stores use the 4×4 double
// one; the vectorized pack (src/core/pack_simd.hpp) uses both.
GSKNN_ALWAYS_INLINE void transpose(__m256d (&r)[4]) {
  const __m256d t0 = _mm256_unpacklo_pd(r[0], r[1]);
  const __m256d t1 = _mm256_unpackhi_pd(r[0], r[1]);
  const __m256d t2 = _mm256_unpacklo_pd(r[2], r[3]);
  const __m256d t3 = _mm256_unpackhi_pd(r[2], r[3]);
  r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

GSKNN_ALWAYS_INLINE void transpose(__m256 (&r)[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/// The MV·L × NR accumulator tile. The C layouts it loads and stores:
/// column-major C[i + j·ld] (pure accumulator buffers, GEMM) and
/// query-major C[i·ld + j] (rows contiguous, what the selection scans).
/// Every lambda over acc is forced inline (GSKNN_INLINE_LAMBDA): one left
/// out of line takes the tile's address, and the accumulators go to memory.
template <class V, int MV, int NR>
struct Tile {
  using T = typename V::T;
  using Reg = typename V::Reg;
  static constexpr int L = V::kLanes;
  static constexpr int kMr = MV * L;
  static_assert(kMr <= kMaxMr && NR <= kMaxNr,
                "tile exceeds the per-tile scratch bounds in arch.hpp");

  Reg acc[NR][MV];

  /// f(acc[j][v], j, v) over the tile, column by column.
  template <class F>
  GSKNN_ALWAYS_INLINE void each(F&& f) {
    unroll<NR>([&](auto j) GSKNN_INLINE_LAMBDA {
      unroll<MV>([&](auto v) GSKNN_INLINE_LAMBDA { f(acc[j][v], j, v); });
    });
  }

  GSKNN_ALWAYS_INLINE void zero() {
    each([](Reg& a, auto, auto) GSKNN_INLINE_LAMBDA { a = V::zero(); });
  }

  GSKNN_ALWAYS_INLINE void load_cols(const T* C, long ld) {
    each([&](Reg& a, auto j, auto v) GSKNN_INLINE_LAMBDA {
      a = V::loadu(C + j * ld + v * L);
    });
  }

  GSKNN_ALWAYS_INLINE void store_cols(T* C, long ld) {
    each([&](Reg& a, auto j, auto v) GSKNN_INLINE_LAMBDA {
      V::storeu(C + j * ld + v * L, a);
    });
  }

  /// acc(:, j) = op(acc(:, j), Q(:, p), R(j, p)) for p = 0 … dc − 1, in
  /// order. Only the Q panel gets a software prefetch: it is the loop's
  /// widest stream (kMr elements per step) and the fixed look-ahead keeps
  /// its next lines in flight. Prefetching the narrower R panel or the heap
  /// roots as well was measured slower (load-port contention in a loop that
  /// saturates them) — see EXPERIMENTS.md "Hot-path tuning".
  template <class Op>
  GSKNN_ALWAYS_INLINE void rank_update(int dc, const T* GSKNN_RESTRICT Qp,
                                       const T* GSKNN_RESTRICT Rp, Op op) {
    for (int p = 0; p < dc; ++p) {
      Reg q[MV];
      unroll<MV>([&](auto v) GSKNN_INLINE_LAMBDA {
        q[v] = V::load(Qp + v * L);
      });
      GSKNN_PREFETCH_R(Qp + kMicroQPrefetchIters * kMr);
      unroll<NR>([&](auto j) GSKNN_INLINE_LAMBDA {
        const Reg rb = V::set1(Rp[j]);
        unroll<MV>([&](auto v) GSKNN_INLINE_LAMBDA {
          acc[j][v] = op(acc[j][v], q[v], rb);
        });
      });
      Qp += kMr;
      Rp += NR;
    }
  }

  // Query-major loads and stores transpose the tile. Doubles go through
  // in-register 4×4 transposes, one per 4-row quarter of a vector and 4
  // columns; floats spill through an aligned stack tile (they only use this
  // layout for the Var#5/#6 selection buffers, where the store is a
  // vanishing fraction of the work).
  static constexpr bool kRegTranspose = std::is_same_v<T, double>;
  static_assert(!kRegTranspose || NR % 4 == 0);

  GSKNN_ALWAYS_INLINE void load_rows(const T* C, long ld) {
    if constexpr (kRegTranspose) {
      unroll<NR / 4>([&](auto c) GSKNN_INLINE_LAMBDA {
        unroll<MV>([&](auto v) GSKNN_INLINE_LAMBDA {
          __m256d y[L / 4][4];
          unroll<L / 4>([&](auto h) GSKNN_INLINE_LAMBDA {
            const T* rows = C + (v * L + h * 4) * ld + c * 4;
            unroll<4>([&](auto r) GSKNN_INLINE_LAMBDA {
              y[h][r] = _mm256_loadu_pd(rows + r * ld);
            });
            transpose(y[h]);
          });
          unroll<4>([&](auto r) GSKNN_INLINE_LAMBDA {
            acc[c * 4 + r][v] = V::join(y[0][r], y[L / 4 - 1][r]);
          });
        });
      });
    } else {
      alignas(64) T t[NR][kMr];
      for (int i = 0; i < kMr; ++i) {
        for (int j = 0; j < NR; ++j) t[j][i] = C[i * ld + j];
      }
      each([&](Reg& a, auto j, auto v) GSKNN_INLINE_LAMBDA {
        a = V::load(t[j] + v * L);
      });
    }
  }

  GSKNN_ALWAYS_INLINE void store_rows(T* C, long ld) {
    if constexpr (kRegTranspose) {
      unroll<NR / 4>([&](auto c) GSKNN_INLINE_LAMBDA {
        unroll<MV>([&](auto v) GSKNN_INLINE_LAMBDA {
          unroll<L / 4>([&](auto h) GSKNN_INLINE_LAMBDA {
            __m256d y[4];
            unroll<4>([&](auto r) GSKNN_INLINE_LAMBDA {
              y[r] = V::quarter(acc[c * 4 + r][v], h);
            });
            transpose(y);
            T* rows = C + (v * L + h * 4) * ld + c * 4;
            unroll<4>([&](auto r) GSKNN_INLINE_LAMBDA {
              _mm256_storeu_pd(rows + r * ld, y[r]);
            });
          });
        });
      });
    } else {
      alignas(64) T t[NR][kMr];
      each([&](Reg& a, auto j, auto v) GSKNN_INLINE_LAMBDA {
        V::store(t[j] + v * L, a);
      });
      for (int i = 0; i < kMr; ++i) {
        for (int j = 0; j < NR; ++j) C[i * ld + j] = t[j][i];
      }
    }
  }
};

/// GEMM micro-kernel (src/blas/ukernel.hpp contract): the rank-kc product
/// from zero, then C := alpha·tile + beta·C (C is not read when beta == 0).
template <class V, int MV, int NR>
void gemm_ukernel(int kc, const typename V::T* Ap, const typename V::T* Bp,
                  typename V::T alpha, typename V::T beta,
                  typename V::T* GSKNN_RESTRICT C, int ldc) {
  using Reg = typename V::Reg;
  constexpr int L = V::kLanes;
  Tile<V, MV, NR> t;
  t.zero();
  t.rank_update(kc, Ap, Bp, [](Reg a, Reg q, Reg r) GSKNN_INLINE_LAMBDA {
    return V::fmadd(q, r, a);
  });
  const Reg va = V::set1(alpha);
  const long ld = ldc;
  if (beta == 0) {
    t.each([&](Reg& a, auto j, auto v) GSKNN_INLINE_LAMBDA {
      V::storeu(C + j * ld + v * L, V::mul(va, a));
    });
  } else {
    const Reg vb = V::set1(beta);
    t.each([&](Reg& a, auto j, auto v) GSKNN_INLINE_LAMBDA {
      typename V::T* c = C + j * ld + v * L;
      V::storeu(c, V::fmadd(va, a, V::mul(vb, V::loadu(c))));
    });
  }
}

#endif  // AVX2 + FMA

#if defined(__AVX512F__)

struct Avx512F64 {
  using T = double;
  using Reg = __m512d;
  static constexpr int kLanes = 8;
  GSKNN_SIMD_OPS(_mm512, pd)
  static Reg abs(Reg a) { return _mm512_abs_pd(a); }
  static unsigned le(Reg a, Reg b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ);
  }
  static Reg blend_le(Reg x, Reg y, Reg a, Reg b) {
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(a, b, _CMP_LE_OQ), x, y);
  }
  static __m256d quarter(Reg v, int h) {
    return h == 0 ? _mm512_castpd512_pd256(v) : _mm512_extractf64x4_pd(v, 1);
  }
  static Reg join(__m256d lo, __m256d hi) {
    return _mm512_insertf64x4(_mm512_castpd256_pd512(lo), hi, 1);
  }
};

struct Avx512F32 {
  using T = float;
  using Reg = __m512;
  static constexpr int kLanes = 16;
  GSKNN_SIMD_OPS(_mm512, ps)
  static Reg abs(Reg a) { return _mm512_abs_ps(a); }
  static unsigned le(Reg a, Reg b) {
    return _mm512_cmp_ps_mask(a, b, _CMP_LE_OQ);
  }
  static Reg blend_le(Reg x, Reg y, Reg a, Reg b) {
    return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(a, b, _CMP_LE_OQ), x, y);
  }
};

#endif  // AVX-512F

#undef GSKNN_SIMD_OPS

}  // namespace gsknn::simd
