#include "gsknn/blas/gemm.hpp"

#include <algorithm>
#include <cassert>

#include "gsknn/common/aligned.hpp"
#include "gsknn/common/arch.hpp"
#include "gsknn/common/threads.hpp"
#include "pack.hpp"
#include "ukernel.hpp"

namespace gsknn::blas {

namespace {

/// Scale C by beta (handles the k == 0 early-out and the alpha == 0 case).
template <typename T>
void scale_c(int m, int n, T beta, T* C, int ldc) {
  if (beta == T(1)) return;
  for (int j = 0; j < n; ++j) {
    T* cj = C + static_cast<long>(j) * ldc;
    if (beta == T(0)) {
      std::fill(cj, cj + m, T(0));
    } else {
      for (int i = 0; i < m; ++i) cj[i] *= beta;
    }
  }
}

/// Per-thread packed-A arena (Goto scheme: Bp is shared across threads of
/// the ic loop, Ap is private).
template <typename T>
struct Arena {
  AlignedBuffer<T> ap;
  AlignedBuffer<T> tile;  // mr×nr edge staging
};

template <typename T>
Arena<T>& arena() {
  thread_local Arena<T> a;
  return a;
}

template <typename T>
void gemm_impl(Trans transa, Trans transb, int m, int n, int k, T alpha,
               const T* A, int lda, const T* B, int ldb, T beta, T* C,
               int ldc) {
  assert(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == T(0)) {
    scale_c(m, n, beta, C, ldc);
    return;
  }

  const SimdLevel level = cpu_features().best_level();
  const UKernelT<T> uk = select_ukernel<T>(level);
  const BlockingParams bp = derive_blocking(uk.mr, uk.nr, sizeof(T));
  const UKernelFnT<T> ukr = uk.fn;
  const int tmr = uk.mr;
  const int tnr = uk.nr;
  const int kc = bp.dc;
  const int mc = bp.mc;
  const int nc = bp.nc;

  AlignedBuffer<T> bpanel(
      static_cast<std::size_t>(round_up(static_cast<std::size_t>(std::min(n, nc)), tnr)) *
      static_cast<std::size_t>(std::min(k, kc)));

  for (int jc = 0; jc < n; jc += nc) {                 // 6th loop
    const int nb = std::min(nc, n - jc);
    const int nb_pad = static_cast<int>(round_up(static_cast<std::size_t>(nb), tnr));
    for (int pc = 0; pc < k; pc += kc) {               // 5th loop
      const int kb = std::min(kc, k - pc);
      bpanel.reset(static_cast<std::size_t>(nb_pad) * kb);
      pack_b_rt(tnr, transb, B, ldb, pc, jc, kb, nb, bpanel.data());
      const T beta_eff = (pc == 0) ? beta : T(1);

      GSKNN_OMP(omp parallel for schedule(static))
      for (int ic = 0; ic < m; ic += mc) {             // 4th loop
        const int mb = std::min(mc, m - ic);
        const int mb_pad = static_cast<int>(round_up(static_cast<std::size_t>(mb), tmr));
        Arena<T>& ar = arena<T>();
        ar.ap.reset(static_cast<std::size_t>(mb_pad) * kb);
        ar.tile.reset(static_cast<std::size_t>(kMaxMr) * kMaxNr);
        pack_a_rt(tmr, transa, A, lda, ic, pc, mb, kb, ar.ap.data());

        for (int jr = 0; jr < nb; jr += tnr) {         // 3rd loop
          const T* bs = bpanel.data() + static_cast<long>(jr) * kb;
          const int cols = std::min(tnr, nb - jr);
          for (int ir = 0; ir < mb; ir += tmr) {       // 2nd loop
            const T* as = ar.ap.data() + static_cast<long>(ir) * kb;
            const int rows = std::min(tmr, mb - ir);
            T* c = C + (ic + ir) + static_cast<long>(jc + jr) * ldc;
            if (rows == tmr && cols == tnr) {
              ukr(kb, as, bs, alpha, beta_eff, c, ldc);
            } else {
              // Edge tile: compute the full padded tile into staging, then
              // merge only the valid sub-block into C.
              T* t = ar.tile.data();
              ukr(kb, as, bs, alpha, T(0), t, tmr);
              for (int j = 0; j < cols; ++j) {
                for (int i = 0; i < rows; ++i) {
                  T& dst = c[i + static_cast<long>(j) * ldc];
                  dst = t[i + static_cast<long>(j) * tmr] +
                        (beta_eff == T(0) ? T(0) : beta_eff * dst);
                }
              }
            }
          }
        }
      }
    }
  }
}

template <typename T>
void gemm_naive_impl(Trans transa, Trans transb, int m, int n, int k, T alpha,
                     const T* A, int lda, const T* B, int ldb, T beta, T* C,
                     int ldc) {
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      T acc = T(0);
      for (int p = 0; p < k; ++p) {
        acc += op_a(transa, A, lda, i, p) * op_b(transb, B, ldb, p, j);
      }
      T& c = C[i + static_cast<long>(j) * ldc];
      c = alpha * acc + (beta == T(0) ? T(0) : beta * c);
    }
  }
}

}  // namespace

void dgemm(Trans transa, Trans transb, int m, int n, int k, double alpha,
           const double* A, int lda, const double* B, int ldb, double beta,
           double* C, int ldc) {
  gemm_impl<double>(transa, transb, m, n, k, alpha, A, lda, B, ldb, beta, C,
                    ldc);
}

void sgemm(Trans transa, Trans transb, int m, int n, int k, float alpha,
           const float* A, int lda, const float* B, int ldb, float beta,
           float* C, int ldc) {
  gemm_impl<float>(transa, transb, m, n, k, alpha, A, lda, B, ldb, beta, C,
                   ldc);
}

void dgemm_naive(Trans transa, Trans transb, int m, int n, int k, double alpha,
                 const double* A, int lda, const double* B, int ldb,
                 double beta, double* C, int ldc) {
  gemm_naive_impl<double>(transa, transb, m, n, k, alpha, A, lda, B, ldb,
                          beta, C, ldc);
}

void sgemm_naive(Trans transa, Trans transb, int m, int n, int k, float alpha,
                 const float* A, int lda, const float* B, int ldb, float beta,
                 float* C, int ldc) {
  gemm_naive_impl<float>(transa, transb, m, n, k, alpha, A, lda, B, ldb, beta,
                         C, ldc);
}

void row_sqnorms(Trans transa, int m, int k, const double* A, int lda,
                 double* out) {
  for (int i = 0; i < m; ++i) {
    double s = 0.0;
    for (int p = 0; p < k; ++p) {
      const double v = op_a(transa, A, lda, i, p);
      s += v * v;
    }
    out[i] = s;
  }
}

}  // namespace gsknn::blas
