// AVX2+FMA fused micro-kernels (ℓ2, ℓ1, ℓ∞, cosine): the tile template at
// 8×4 doubles and 8×8 floats.
#if defined(GSKNN_BUILD_AVX2)

#include "micro_simd.hpp"

namespace gsknn::core {

template <typename T>
MicroKernelT<T> micro_avx2(Norm norm) {
  if constexpr (std::is_same_v<T, double>) {
    return micro_table<simd::Avx2F64, 2, 4>(norm);
  } else {
    return micro_table<simd::Avx2F32, 1, 8>(norm);
  }
}

template MicroKernelT<double> micro_avx2(Norm);
template MicroKernelT<float> micro_avx2(Norm);

}  // namespace gsknn::core

#endif  // GSKNN_BUILD_AVX2
