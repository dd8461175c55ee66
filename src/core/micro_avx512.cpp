// AVX-512F fused micro-kernels (ℓ2, ℓ1, ℓ∞, cosine): the tile template at
// 16×4 doubles and 16×8 floats.
#if defined(GSKNN_BUILD_AVX512)

#include "micro_simd.hpp"

namespace gsknn::core {

template <typename T>
MicroKernelT<T> micro_avx512(Norm norm) {
  if constexpr (std::is_same_v<T, double>) {
    return micro_table<simd::Avx512F64, 2, 4>(norm);
  } else {
    return micro_table<simd::Avx512F32, 1, 8>(norm);
  }
}

template MicroKernelT<double> micro_avx512(Norm);
template MicroKernelT<float> micro_avx512(Norm);

}  // namespace gsknn::core

#endif  // GSKNN_BUILD_AVX512
