// The vectorized general-stride pack (paper §2.3; the Tcoll optimization):
// one template for every sliver width, precision and SIMD level,
// instantiated per level in micro_avx*.cpp beside the micro-kernels whose
// slivers it fills. Only those SIMD translation units include this header.
//
// The scalar pack_points<S> (pack.hpp) walks one source point at a time and
// scatters its depth values with stride S; at low d that strided store
// stream is the whole collection cost. Here a full group of S points is S/L
// blocks of L source rows × L depth steps (L = the traits' lane count).
// Each block is loaded and transposed in registers, then the finished
// sliver rows are stored, each S contiguous elements, while the rows of
// the next group are prefetched (low locality: each row is read once per
// depth block). The depth remainder is one scalar loop and the tail group
// is pack_points<S> itself, so every packed byte is the reference's.
//
// The transposes run on 256-bit vectors at every level: the pack is
// memory-bound, and 4×4 / 8×8 ymm transposes reach the bandwidth of a
// 512-bit shuffle ladder at less port-5 pressure. A new sliver width is one
// more width in a level's pack_table.
#pragma once

#include "../blas/simd_tile.hpp"
#include "pack.hpp"

namespace gsknn::core {

/// pack_points<S>'s contract, full groups through L×L register transposes.
template <class V, int S>
void pack_points_simd(const PointTableT<typename V::T>& X,
                      const int* GSKNN_RESTRICT idx, int i0, int count, int p0,
                      int db, typename V::T* GSKNN_RESTRICT dst) {
  using T = typename V::T;
  using Reg = typename V::Reg;
  using simd::unroll;
  constexpr int L = V::kLanes;
  constexpr int B = S / L;
  static_assert(S % L == 0, "a sliver row is whole vectors");
  // Up to 8 vectors, every block is transposed before the first store and
  // the sliver rows are stored in order (storing each block as soon as it
  // is transposed measured slower). Past that, each block is stored at
  // once: more would not fit the 16 ymm registers beside the transpose
  // temporaries. Both orders are the ones the hand-written kernels used.
  constexpr bool kRowStores = B * L <= 8;
  const int d = X.dim();
  const T* GSKNN_RESTRICT x = X.data();
  const auto row = [&](int i) {
    return x + static_cast<long>(idx[i0 + i]) * d + p0;
  };
  const int full = count - count % S;
  for (int g = 0; g < full; g += S) {
    T* GSKNN_RESTRICT blk = dst + static_cast<long>(g) * db;
    const T* src[S];
    for (int i = 0; i < S; ++i) src[i] = row(g + i);
    for (int i = g + S; i < count && i < g + 2 * S; ++i) {
      GSKNN_PREFETCH_R_LOW(row(i));
    }
    // A long depth index: with an int one GCC 12 built slower loops for
    // the 8-wide f64 and 16-wide f32 packs (EXPERIMENTS.md, "One
    // transpose-pack template").
    long p = 0;
    for (; p + L <= db; p += L) {
      Reg r[B][L];
      unroll<B>([&](auto b) GSKNN_INLINE_LAMBDA {
        unroll<L>([&](auto l) GSKNN_INLINE_LAMBDA {
          r[b][l] = V::loadu(src[b * L + l] + p);
        });
        simd::transpose(r[b]);
        if constexpr (!kRowStores) {
          unroll<L>([&](auto l) GSKNN_INLINE_LAMBDA {
            V::store(blk + (p + l) * S + b * L, r[b][l]);
          });
        }
      });
      if constexpr (kRowStores) {
        unroll<L>([&](auto l) GSKNN_INLINE_LAMBDA {
          unroll<B>([&](auto b) GSKNN_INLINE_LAMBDA {
            V::store(blk + (p + l) * S + b * L, r[b][l]);
          });
        });
      }
    }
    for (; p < db; ++p) {
      for (int i = 0; i < S; ++i) blk[p * S + i] = src[i][p];
    }
  }
  if (full < count) {
    pack_points<S>(X, idx, i0 + full, count - full, p0, db,
                   dst + static_cast<long>(full) * db);
  }
}

/// A level's vector packs: pack_points_simd<V, S> for each listed width S,
/// nullptr for any other width.
template <class V, int... Widths>
PackFnT<typename V::T> pack_table(int S) {
  PackFnT<typename V::T> fn = nullptr;
  ((S == Widths ? fn = pack_points_simd<V, Widths> : fn), ...);
  return fn;
}

}  // namespace gsknn::core
