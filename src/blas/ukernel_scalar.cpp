#include "gsknn/common/macros.hpp"
#include "ukernel.hpp"

namespace gsknn::blas {

namespace {

template <typename T>
void ukernel_8x4_scalar_impl(int kc, const T* GSKNN_RESTRICT Ap,
                             const T* GSKNN_RESTRICT Bp, T alpha, T beta,
                             T* GSKNN_RESTRICT C, int ldc) {
  T acc[kMr][kNr] = {};
  for (int p = 0; p < kc; ++p) {
    const T* a = Ap + static_cast<long>(p) * kMr;
    const T* b = Bp + static_cast<long>(p) * kNr;
    for (int j = 0; j < kNr; ++j) {
      const T bj = b[j];
      for (int i = 0; i < kMr; ++i) acc[i][j] += a[i] * bj;
    }
  }
  if (beta == T(0)) {
    for (int j = 0; j < kNr; ++j) {
      for (int i = 0; i < kMr; ++i) {
        C[i + static_cast<long>(j) * ldc] = alpha * acc[i][j];
      }
    }
  } else {
    for (int j = 0; j < kNr; ++j) {
      for (int i = 0; i < kMr; ++i) {
        T& c = C[i + static_cast<long>(j) * ldc];
        c = alpha * acc[i][j] + beta * c;
      }
    }
  }
}

}  // namespace

template <typename T>
UKernelT<T> select_ukernel(SimdLevel level) {
#if defined(GSKNN_BUILD_AVX512)
  if (level >= SimdLevel::kAvx512) return ukernel_avx512<T>();
#endif
#if defined(GSKNN_BUILD_AVX2)
  if (level >= SimdLevel::kAvx2) return ukernel_avx2<T>();
#endif
  (void)level;
  return {ukernel_8x4_scalar_impl<T>, kMr, kNr};
}

template UKernelT<double> select_ukernel(SimdLevel);
template UKernelT<float> select_ukernel(SimdLevel);

}  // namespace gsknn::blas
