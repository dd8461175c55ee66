// Portable fused micro-kernels — the reference implementation of the
// Algorithm 2.3 contract for every norm, and the ℓp production path.
#include <algorithm>
#include <cmath>

#include "micro.hpp"

namespace gsknn::core {

namespace {

/// Per-element combine for the rank-dc update, one specialization per norm.
template <Norm N, typename T>
GSKNN_ALWAYS_INLINE T combine(T acc, T q, T r, double lp) {
  if constexpr (N == Norm::kL2Sq || N == Norm::kCosine) {
    (void)lp;
    return acc + q * r;  // inner product; the finish step maps it to a
                         // distance (−2·expansion or cosine normalization)
  } else if constexpr (N == Norm::kL1) {
    (void)lp;
    return acc + std::abs(q - r);
  } else if constexpr (N == Norm::kLInf) {
    (void)lp;
    // Mirror vmaxpd/vmaxps exactly (acc = src1, |q−r| = src2): on equality
    // or any NaN operand the *second* source is returned. std::max would
    // silently drop a NaN in the new term, making scalar and AVX runs
    // disagree on poisoned inputs; with this form (plus the driver's
    // panel poisoning of non-finite points) all SIMD levels produce the
    // same NaN distances, which the selection contract then rejects.
    const T t = std::abs(q - r);
    return (acc > t) ? acc : t;
  } else {
    return acc + static_cast<T>(std::pow(std::abs(static_cast<double>(q - r)), lp));
  }
}

template <Norm N, typename T>
void micro_impl(int dcur, const T* GSKNN_RESTRICT Qp,
                const T* GSKNN_RESTRICT Rp,
                const T* GSKNN_RESTRICT Cin, int ldin,
                T* GSKNN_RESTRICT Cout, int ldout, bool c_colmajor,
                const T* GSKNN_RESTRICT q2,
                const T* GSKNN_RESTRICT r2, bool finish, int rows,
                int cols, const SelectCtxT<T>* sel, double lp) {
  const auto cidx = [c_colmajor](int i, int j, int ld) {
    return c_colmajor ? static_cast<long>(j) * ld + i
                      : static_cast<long>(i) * ld + j;
  };
  T acc[kMr][kNr];
  if (Cin != nullptr) {
    for (int i = 0; i < kMr; ++i) {
      for (int j = 0; j < kNr; ++j) {
        acc[i][j] = Cin[cidx(i, j, ldin)];
      }
    }
  } else {
    for (int i = 0; i < kMr; ++i) {
      for (int j = 0; j < kNr; ++j) acc[i][j] = T(0);
    }
  }

  for (int p = 0; p < dcur; ++p) {
    const T* GSKNN_RESTRICT q = Qp + static_cast<long>(p) * kMr;
    const T* GSKNN_RESTRICT r = Rp + static_cast<long>(p) * kNr;
    for (int j = 0; j < kNr; ++j) {
      const T rj = r[j];
      for (int i = 0; i < kMr; ++i) {
        acc[i][j] = combine<N>(acc[i][j], q[i], rj, lp);
      }
    }
  }

  if (finish && N == Norm::kL2Sq) {
    // ‖q−r‖² = ‖q‖² + ‖r‖² − 2·qᵀr, clamped at zero against cancellation.
    // The clamp is written as the exact scalar equivalent of
    // _mm256_max_pd(zero, v) (src2 returned on NaN): a NaN expansion —
    // non-finite coordinates — must stay NaN, not turn into 0.
    for (int i = 0; i < kMr; ++i) {
      for (int j = 0; j < kNr; ++j) {
        const T v = static_cast<T>(q2[i] + r2[j] - T(2) * acc[i][j]);
        acc[i][j] = (T(0) > v) ? T(0) : v;
      }
    }
  }
  if (finish && N == Norm::kCosine) {
    // 1 − qᵀr/(‖q‖·‖r‖); zero-norm points (and zero-padded lanes) get
    // distance 1 via the guarded denominator. The guard tests denom <= 0
    // (not > 0) so a NaN denominator — non-finite coordinates — falls into
    // the NaN-producing division branch, matching the AVX _CMP_LE_OQ blend.
    for (int i = 0; i < kMr; ++i) {
      for (int j = 0; j < kNr; ++j) {
        const T denom = std::sqrt(q2[i] * r2[j]);
        acc[i][j] = (denom <= T(0)) ? T(1) : T(1) - acc[i][j] / denom;
      }
    }
  }

  if (sel != nullptr) {
    for (int j = 0; j < cols; ++j) {
      const int id = sel->cand_ids[j];
      for (int i = 0; i < rows; ++i) {
        if (sel_accepts(acc[i][j], id, sel->hd[i], sel->hi[i])) {
          sel_insert(*sel, i, acc[i][j], id);
        }
      }
    }
  }

  if (Cout != nullptr) {
    for (int i = 0; i < kMr; ++i) {
      for (int j = 0; j < kNr; ++j) {
        Cout[cidx(i, j, ldout)] = acc[i][j];
      }
    }
  }
}

template <typename T>
MicroKernelT<T> micro_scalar(Norm norm) {
  switch (norm) {
    case Norm::kL2Sq:
      return {micro_impl<Norm::kL2Sq, T>, kMr, kNr};
    case Norm::kL1:
      return {micro_impl<Norm::kL1, T>, kMr, kNr};
    case Norm::kLInf:
      return {micro_impl<Norm::kLInf, T>, kMr, kNr};
    case Norm::kLp:
      return {micro_impl<Norm::kLp, T>, kMr, kNr};
    case Norm::kCosine:
      return {micro_impl<Norm::kCosine, T>, kMr, kNr};
  }
  return {micro_impl<Norm::kL2Sq, T>, kMr, kNr};
}

}  // namespace

template <typename T>
MicroKernelT<T> select_micro(SimdLevel level, Norm norm) {
#if defined(GSKNN_BUILD_AVX512)
  if (level >= SimdLevel::kAvx512) {
    const MicroKernelT<T> mk = micro_avx512<T>(norm);
    if (mk.fn != nullptr) return mk;
  }
#endif
#if defined(GSKNN_BUILD_AVX2)
  if (level >= SimdLevel::kAvx2) {
    const MicroKernelT<T> mk = micro_avx2<T>(norm);
    if (mk.fn != nullptr) return mk;
  }
#endif
  (void)level;
  return micro_scalar<T>(norm);
}

template MicroKernelT<double> select_micro(SimdLevel, Norm);
template MicroKernelT<float> select_micro(SimdLevel, Norm);

}  // namespace gsknn::core
