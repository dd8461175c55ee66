// AVX-512 transpose-pack kernels for the 16-wide slivers the 16-row
// micro-kernels consume (see pack_avx2.cpp for the scheme; this TU only
// widens the register block to 16 source rows per group).
//
// The transposes run on 256-bit halves: the data movement is memory-bound,
// so 4×4 ymm transposes reach the same bandwidth as a full 16×8 zmm
// shuffle ladder while keeping the port-5 pressure (and the code) low.
// Stores of finished sliver rows are full 64-byte lines.
#include "pack.hpp"

#if defined(GSKNN_BUILD_AVX512)

#include <immintrin.h>

namespace gsknn::core {

namespace {

GSKNN_ALWAYS_INLINE void transpose4d(__m256d& a, __m256d& b, __m256d& c,
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

GSKNN_ALWAYS_INLINE void transpose8f(__m256& r0, __m256& r1, __m256& r2,
                                     __m256& r3, __m256& r4, __m256& r5,
                                     __m256& r6, __m256& r7) {
  const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
  const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
  const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
  const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
  const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
  const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
  const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
  const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r0 = _mm256_permute2f128_ps(s0, s4, 0x20);
  r1 = _mm256_permute2f128_ps(s1, s5, 0x20);
  r2 = _mm256_permute2f128_ps(s2, s6, 0x20);
  r3 = _mm256_permute2f128_ps(s3, s7, 0x20);
  r4 = _mm256_permute2f128_ps(s0, s4, 0x31);
  r5 = _mm256_permute2f128_ps(s1, s5, 0x31);
  r6 = _mm256_permute2f128_ps(s2, s6, 0x31);
  r7 = _mm256_permute2f128_ps(s3, s7, 0x31);
}

template <int S, typename T>
GSKNN_ALWAYS_INLINE void prefetch_group(const T* GSKNN_RESTRICT x, int d,
                                        const int* GSKNN_RESTRICT idx, int i0,
                                        int count, int g, int p0) {
  if (g >= count) return;
  const int pts = (count - g < S) ? count - g : S;
  for (int i = 0; i < pts; ++i) {
    GSKNN_PREFETCH_R_LOW(x + static_cast<long>(idx[i0 + g + i]) * d + p0);
  }
}

template <int S, typename T>
void pack_group_scalar(const T* GSKNN_RESTRICT x, int d,
                       const int* GSKNN_RESTRICT idx, int i0, int pts, int p0,
                       int db, T* GSKNN_RESTRICT blk) {
  for (int i = 0; i < pts; ++i) {
    const T* GSKNN_RESTRICT src = x + static_cast<long>(idx[i0 + i]) * d + p0;
    for (int p = 0; p < db; ++p) blk[static_cast<long>(p) * S + i] = src[p];
  }
  for (int i = pts; i < S; ++i) {
    for (int p = 0; p < db; ++p) blk[static_cast<long>(p) * S + i] = T(0);
  }
}

}  // namespace

void pack_points_avx512_s16(const PointTableT<double>& X, const int* idx,
                            int i0, int count, int p0, int db, double* dst) {
  constexpr int S = 16;
  const int d = X.dim();
  const double* GSKNN_RESTRICT x = X.data();
  for (int g = 0; g + S <= count; g += S) {
    double* GSKNN_RESTRICT blk = dst + static_cast<long>(g) * db;
    const double* GSKNN_RESTRICT src[S];
    for (int i = 0; i < S; ++i) {
      src[i] = x + static_cast<long>(idx[i0 + g + i]) * d + p0;
    }
    prefetch_group<S>(x, d, idx, i0, count, g + S, p0);
    int p = 0;
    for (; p + 4 <= db; p += 4) {
      // Four 4-row quarters per depth chunk; quarter q fills lanes
      // 4q..4q+3 of each of the four finished sliver rows.
      for (int q = 0; q < 4; ++q) {
        __m256d a = _mm256_loadu_pd(src[4 * q + 0] + p);
        __m256d b = _mm256_loadu_pd(src[4 * q + 1] + p);
        __m256d c = _mm256_loadu_pd(src[4 * q + 2] + p);
        __m256d e = _mm256_loadu_pd(src[4 * q + 3] + p);
        transpose4d(a, b, c, e);
        _mm256_store_pd(blk + static_cast<long>(p + 0) * S + 4 * q, a);
        _mm256_store_pd(blk + static_cast<long>(p + 1) * S + 4 * q, b);
        _mm256_store_pd(blk + static_cast<long>(p + 2) * S + 4 * q, c);
        _mm256_store_pd(blk + static_cast<long>(p + 3) * S + 4 * q, e);
      }
    }
    for (; p < db; ++p) {
      for (int i = 0; i < S; ++i) {
        blk[static_cast<long>(p) * S + i] = src[i][p];
      }
    }
  }
  const int tail = count % S;
  if (tail != 0) {
    const int g = count - tail;
    pack_group_scalar<S>(x, d, idx, i0 + g, tail, p0, db,
                         dst + static_cast<long>(g) * db);
  }
}

void pack_points_avx512_s16f(const PointTableT<float>& X, const int* idx,
                             int i0, int count, int p0, int db, float* dst) {
  constexpr int S = 16;
  const int d = X.dim();
  const float* GSKNN_RESTRICT x = X.data();
  for (int g = 0; g + S <= count; g += S) {
    float* GSKNN_RESTRICT blk = dst + static_cast<long>(g) * db;
    const float* GSKNN_RESTRICT src[S];
    for (int i = 0; i < S; ++i) {
      src[i] = x + static_cast<long>(idx[i0 + g + i]) * d + p0;
    }
    prefetch_group<S>(x, d, idx, i0, count, g + S, p0);
    int p = 0;
    for (; p + 8 <= db; p += 8) {
      // Two 8-row halves per depth chunk of 8.
      for (int h = 0; h < 2; ++h) {
        __m256 r0 = _mm256_loadu_ps(src[8 * h + 0] + p);
        __m256 r1 = _mm256_loadu_ps(src[8 * h + 1] + p);
        __m256 r2 = _mm256_loadu_ps(src[8 * h + 2] + p);
        __m256 r3 = _mm256_loadu_ps(src[8 * h + 3] + p);
        __m256 r4 = _mm256_loadu_ps(src[8 * h + 4] + p);
        __m256 r5 = _mm256_loadu_ps(src[8 * h + 5] + p);
        __m256 r6 = _mm256_loadu_ps(src[8 * h + 6] + p);
        __m256 r7 = _mm256_loadu_ps(src[8 * h + 7] + p);
        transpose8f(r0, r1, r2, r3, r4, r5, r6, r7);
        float* GSKNN_RESTRICT base = blk + 8 * h;
        _mm256_store_ps(base + static_cast<long>(p + 0) * S, r0);
        _mm256_store_ps(base + static_cast<long>(p + 1) * S, r1);
        _mm256_store_ps(base + static_cast<long>(p + 2) * S, r2);
        _mm256_store_ps(base + static_cast<long>(p + 3) * S, r3);
        _mm256_store_ps(base + static_cast<long>(p + 4) * S, r4);
        _mm256_store_ps(base + static_cast<long>(p + 5) * S, r5);
        _mm256_store_ps(base + static_cast<long>(p + 6) * S, r6);
        _mm256_store_ps(base + static_cast<long>(p + 7) * S, r7);
      }
    }
    for (; p < db; ++p) {
      for (int i = 0; i < S; ++i) {
        blk[static_cast<long>(p) * S + i] = src[i][p];
      }
    }
  }
  const int tail = count % S;
  if (tail != 0) {
    const int g = count - tail;
    pack_group_scalar<S>(x, d, idx, i0 + g, tail, p0, db,
                         dst + static_cast<long>(g) * db);
  }
}

}  // namespace gsknn::core

#endif  // GSKNN_BUILD_AVX512
