// The fused GSKNN micro-kernel (Algorithm 2.3) on the register tile the
// GEMM kernels share (src/blas/simd_tile.hpp), instantiated per ISA in
// micro_avx*.cpp. On top of the rank-dc update, the distance finish runs in
// registers and Var#1 selection is the paper's vectorized root compare: a
// column whose `<=` mask is empty is dropped without a single store.
#pragma once

#include "../blas/simd_tile.hpp"
#include "micro.hpp"

namespace gsknn::core {

/// One m_r × n_r tile through the four steps of the micro.hpp contract.
template <class V, int MV, int NR, Norm N>
void micro_simd(int dcur, const typename V::T* GSKNN_RESTRICT Qp,
                const typename V::T* GSKNN_RESTRICT Rp,
                const typename V::T* GSKNN_RESTRICT Cin, int ldin,
                typename V::T* GSKNN_RESTRICT Cout, int ldout, bool c_colmajor,
                const typename V::T* GSKNN_RESTRICT q2,
                const typename V::T* GSKNN_RESTRICT r2, bool finish, int rows,
                int cols, const SelectCtxT<typename V::T>* sel, double lp) {
  (void)lp;
  using T = typename V::T;
  using Reg = typename V::Reg;
  using simd::unroll;
  constexpr int L = V::kLanes;
  simd::Tile<V, MV, NR> t;

  if (Cin == nullptr) {
    t.zero();
  } else if (c_colmajor) {
    t.load_cols(Cin, ldin);
  } else {
    t.load_rows(Cin, ldin);
  }

  t.rank_update(dcur, Qp, Rp, [](Reg acc, Reg q, Reg r) GSKNN_INLINE_LAMBDA {
    if constexpr (N == Norm::kL2Sq || N == Norm::kCosine) {
      return V::fmadd(q, r, acc);
    } else if constexpr (N == Norm::kL1) {
      return V::add(acc, V::abs(V::sub(q, r)));
    } else {  // kLInf
      return V::max(acc, V::abs(V::sub(q, r)));
    }
  });

  if constexpr (N == Norm::kL2Sq || N == Norm::kCosine) {
    if (finish) {
      Reg q2v[MV];
      unroll<MV>([&](auto v) GSKNN_INLINE_LAMBDA {
        q2v[v] = V::load(q2 + v * L);
      });
      const Reg zero = V::zero();
      const Reg one = V::set1(T(1));
      const Reg two = V::set1(T(2));
      unroll<NR>([&](auto j) GSKNN_INLINE_LAMBDA {
        const Reg r2b = V::set1(r2[j]);
        unroll<MV>([&](auto v) GSKNN_INLINE_LAMBDA {
          Reg& a = t.acc[j][v];
          if constexpr (N == Norm::kL2Sq) {
            // dist = max(0, q2 + r2 − 2·acc); padded lanes get finite
            // garbage, and a NaN expansion stays NaN (max's second operand).
            a = V::max(zero, V::fnmadd(two, a, V::add(q2v[v], r2b)));
          } else {
            // 1 − qᵀr/√(‖q‖²·‖r‖²); zero-norm lanes (zero-padded edge lanes
            // included) would divide by zero, so denom <= 0 pins them at 1.
            const Reg denom = V::sqrt(V::mul(q2v[v], r2b));
            a = V::blend_le(V::sub(one, V::div(a, denom)), one, denom,
                            zero);
          }
        });
      });
    }
  }

  if (sel != nullptr) {
    // Roots of invalid rows are -inf sentinels installed by the driver, so
    // padded lanes never pass the compare. The roots are gathered once per
    // tile; staleness only admits candidates the re-check rejects.
    alignas(64) T root[MV * L];
    for (int i = 0; i < MV * L; ++i) root[i] = sel->hd[i][0];
    Reg roots[MV];
    unroll<MV>([&](auto v) GSKNN_INLINE_LAMBDA {
      roots[v] = V::load(root + v * L);
    });
    unroll<NR>([&](auto j) GSKNN_INLINE_LAMBDA {
      if (j >= cols) return;
      unsigned mask = 0;
      unroll<MV>([&](auto v) GSKNN_INLINE_LAMBDA {
        mask |= V::le(t.acc[j][v], roots[v]) << (v * L);
      });
      if (GSKNN_LIKELY(mask == 0)) return;
      alignas(64) T col[MV * L];
      unroll<MV>([&](auto v) GSKNN_INLINE_LAMBDA {
        V::store(col + v * L, t.acc[j][v]);
      });
      const int id = sel->cand_ids[j];
      while (mask != 0) {
        const int i = __builtin_ctz(mask);
        mask &= mask - 1;
        // Re-check against the live root: earlier inserts (this tile's
        // included) may have shrunk it since the vector compare, and the
        // `<=` prefilter admits root ties the lexicographic rule must
        // arbitrate.
        if (i < rows && sel_accepts(col[i], id, sel->hd[i], sel->hi[i])) {
          sel_insert(*sel, i, col[i], id);
        }
      }
    });
  }

  if (Cout != nullptr) {
    if (c_colmajor) {
      t.store_cols(Cout, ldout);
    } else {
      t.store_rows(Cout, ldout);
    }
  }
}

/// The kernels of one tile shape: ℓ2, ℓ1, ℓ∞ and cosine (ℓp has only the
/// scalar kernel, so its entry is empty).
template <class V, int MV, int NR>
MicroKernelT<typename V::T> micro_table(Norm norm) {
  constexpr int mr = MV * V::kLanes;
  switch (norm) {
    case Norm::kL2Sq:
      return {micro_simd<V, MV, NR, Norm::kL2Sq>, mr, NR};
    case Norm::kL1:
      return {micro_simd<V, MV, NR, Norm::kL1>, mr, NR};
    case Norm::kLInf:
      return {micro_simd<V, MV, NR, Norm::kLInf>, mr, NR};
    case Norm::kCosine:
      return {micro_simd<V, MV, NR, Norm::kCosine>, mr, NR};
    case Norm::kLp:
      break;
  }
  return {nullptr, 0, 0};
}

}  // namespace gsknn::core
