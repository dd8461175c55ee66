// General-stride packing (internal; paper §2.3 "Packing").
//
// Unlike the BLAS packing in src/blas, these routines gather points straight
// from the global table X through an index list — the collection phase of
// Algorithm 2.1 and the GEMM packing phase are fused into one pass, which is
// where GSKNN's Tm^Q + Tm^R savings (eq. 5) come from.
//
// Layout ("Z-shape" sliver format): for each group of S consecutive points,
// `db` depth-steps of S contiguous values:
//   dst[(g·db + p)·S + i] = X(p0 + p, idx[i0 + g·S + i]).
// The final partial group is zero-padded so micro-kernels always execute a
// full tile.
//
// Two implementations share that contract:
//   * the scalar template below — the reference, and the fallback for
//     partial tail groups and sliver widths without a vector kernel;
//   * the SIMD transpose pack (pack_simd.hpp), instantiated per level in
//     micro_avx*.cpp, which loads a register block of source rows,
//     transposes it in registers and stores full slivers — turning the
//     strided element-at-a-time scatter into contiguous vector stores, with
//     a software prefetch of the next group's gathered rows.
// pack_points_rt dispatches on (sliver width, SimdLevel); the driver passes
// the level the micro-kernel actually resolved to, so a blocking fallback
// to a narrower kernel also selects the matching pack path.
#pragma once

#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gsknn/common/arch.hpp"
#include "gsknn/common/macros.hpp"
#include "gsknn/data/point_table.hpp"

namespace gsknn::core {

/// Pack `count` points idx[i0 .. i0+count) over depth [p0, p0+db) into
/// S-slivers at dst (ceil(count/S)·db·S doubles). Always inline: the SIMD
/// packs call it for their tail group, and an out-of-line copy built with
/// their ISA flags could be the one the linker keeps for the scalar path.
template <int S, typename T>
GSKNN_ALWAYS_INLINE void pack_points(const PointTableT<T>& X,
                                     const int* GSKNN_RESTRICT idx, int i0,
                                     int count, int p0, int db,
                                     T* GSKNN_RESTRICT dst) {
  const int d = X.dim();
  const T* GSKNN_RESTRICT x = X.data();
  for (int g = 0; g < count; g += S) {
    const int pts = (count - g < S) ? count - g : S;
    T* GSKNN_RESTRICT blk = dst + static_cast<long>(g) * db;
    for (int i = 0; i < pts; ++i) {
      const T* GSKNN_RESTRICT src =
          x + static_cast<long>(idx[i0 + g + i]) * d + p0;
      for (int p = 0; p < db; ++p) blk[static_cast<long>(p) * S + i] = src[p];
    }
    for (int i = pts; i < S; ++i) {
      for (int p = 0; p < db; ++p) blk[static_cast<long>(p) * S + i] = T(0);
    }
  }
}

/// Pack the squared norms of `count` points into dst
/// (round_up(count, S) values for sliver width S), zero-padding the tail.
template <typename T>
void pack_norms(int S, const PointTableT<T>& X, const int* GSKNN_RESTRICT idx,
                int i0, int count, T* GSKNN_RESTRICT dst) {
  const T* GSKNN_RESTRICT x2 = X.norms2();
  int i = 0;
  for (; i < count; ++i) dst[i] = x2[idx[i0 + i]];
  const int padded = static_cast<int>(round_up(static_cast<std::size_t>(count),
                                               static_cast<std::size_t>(S)));
  for (; i < padded; ++i) dst[i] = T(0);
}

/// A vector pack: pack_points<S>'s contract for one sliver width.
template <typename T>
using PackFnT = void (*)(const PointTableT<T>& X, const int* idx, int i0,
                         int count, int p0, int db, T* dst);

// The vector packs each level has (pack_table in micro_avx2.cpp and
// micro_avx512.cpp): nullptr for a sliver width the level does not pack.
#if defined(GSKNN_BUILD_AVX2)
template <typename T>
PackFnT<T> pack_avx2(int S);
#endif
#if defined(GSKNN_BUILD_AVX512)
template <typename T>
PackFnT<T> pack_avx512(int S);
#endif

/// Runtime dispatch on (sliver width, SIMD level): the highest level at or
/// below `level` with a vector pack for S, else the scalar reference.
/// `level` must be the level of the micro-kernel the driver resolved (not
/// the machine maximum), so pack layout decisions and tile geometry always
/// agree.
template <typename T>
void pack_points_rt(int S, SimdLevel level, const PointTableT<T>& X,
                    const int* idx, int i0, int count, int p0, int db,
                    T* dst) {
  PackFnT<T> fn = nullptr;
#if defined(GSKNN_BUILD_AVX512)
  if (level >= SimdLevel::kAvx512) fn = pack_avx512<T>(S);
#endif
#if defined(GSKNN_BUILD_AVX2)
  if (fn == nullptr && level >= SimdLevel::kAvx2) fn = pack_avx2<T>(S);
#endif
  (void)level;
  if (fn != nullptr) return fn(X, idx, i0, count, p0, db, dst);
  switch (S) {
    case 4:
      return pack_points<4>(X, idx, i0, count, p0, db, dst);
    case 8:
      return pack_points<8>(X, idx, i0, count, p0, db, dst);
    case 16:
      return pack_points<16>(X, idx, i0, count, p0, db, dst);
    default:
      assert(false && "unsupported sliver width");
  }
}

/// Flag every selected point that has at least one non-finite coordinate.
/// `bad[i]` corresponds to position i of the index list (not the global id,
/// which may repeat). O(count·d) worst case, but early-exits per point and is
/// only run for ℓ∞ (see poison_packed below). Shared by the driver's cold
/// path and the PackedRefs cache so their panels poison identically.
template <typename T>
void scan_nonfinite(const PointTableT<T>& X, const int* idx, int count,
                    std::vector<unsigned char>& bad, bool& any) {
  bad.assign(static_cast<std::size_t>(count), 0);
  any = false;
  const int d = X.dim();
  for (int i = 0; i < count; ++i) {
    const T* p = X.col(idx[i]);
    for (int r = 0; r < d; ++r) {
      if (!std::isfinite(p[r])) {
        bad[static_cast<std::size_t>(i)] = 1;
        any = true;
        break;
      }
    }
  }
}

/// Overwrite the packed columns of flagged points with quiet NaN.
///
/// Every additive norm (ℓ1, ℓ2, ℓp, cosine) propagates a NaN coordinate to
/// the final distance through the accumulation itself. ℓ∞ cannot: its
/// max-style combine (vmaxpd and the scalar mirror alike) returns the second
/// source when either operand is NaN, so a NaN term — or a NaN partial
/// carried across depth blocks — is silently dropped the moment a finite
/// term follows it. Poisoning the *entire* packed column of a non-finite
/// point in every depth block makes all of its |q−r| terms NaN, so the max
/// chain ends NaN in every SIMD path and every blocking, and the selection
/// contract then excludes the point. `count` may include the zero-padded
/// tail lanes (their flags are never set). Layout matches pack_points_rt:
/// tile-major groups of `tile` lanes, depth-major within a group.
template <typename T>
void poison_packed(T* panel, const unsigned char* bad, int i0, int count,
                   int tile, int db) {
  const T qnan = std::numeric_limits<T>::quiet_NaN();
  for (int g = 0; g < count; g += tile) {
    const int pts = (count - g < tile) ? count - g : tile;
    T* blk = panel + static_cast<long>(g) * db;
    for (int l = 0; l < pts; ++l) {
      if (!bad[static_cast<std::size_t>(i0 + g + l)]) continue;
      for (int p = 0; p < db; ++p) blk[static_cast<long>(p) * tile + l] = qnan;
    }
  }
}

}  // namespace gsknn::core
