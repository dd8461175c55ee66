// AVX-512F fused micro-kernels (ℓ2, ℓ1, ℓ∞, cosine): the tile template at
// f64_tile(kAvx512) = 16×8 doubles and 16×8 floats.
#if defined(GSKNN_BUILD_AVX512)

#include "micro_simd.hpp"

namespace gsknn::core {

template <typename T>
MicroKernelT<T> micro_avx512(Norm norm) {
  if constexpr (std::is_same_v<T, double>) {
    using V = simd::Avx512F64;
    constexpr TileShape t = f64_tile(SimdLevel::kAvx512);
    return micro_table<V, t.mr / V::kLanes, t.nr>(norm);
  } else {
    return micro_table<simd::Avx512F32, 1, 8>(norm);
  }
}

template MicroKernelT<double> micro_avx512(Norm);
template MicroKernelT<float> micro_avx512(Norm);

}  // namespace gsknn::core

#endif  // GSKNN_BUILD_AVX512
