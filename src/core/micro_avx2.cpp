// AVX2+FMA fused micro-kernels (ℓ2, ℓ1, ℓ∞, cosine): the tile template at
// f64_tile(kAvx2) = 8×4 doubles and 8×8 floats. Beside them, the transpose
// pack for the slivers those tiles read: 4 and 8 doubles, 8 floats wide.
#if defined(GSKNN_BUILD_AVX2)

#include "micro_simd.hpp"
#include "pack_simd.hpp"

namespace gsknn::core {

template <typename T>
MicroKernelT<T> micro_avx2(Norm norm) {
  if constexpr (std::is_same_v<T, double>) {
    using V = simd::Avx2F64;
    constexpr TileShape t = f64_tile(SimdLevel::kAvx2);
    return micro_table<V, t.mr / V::kLanes, t.nr>(norm);
  } else {
    return micro_table<simd::Avx2F32, 1, 8>(norm);
  }
}

template MicroKernelT<double> micro_avx2(Norm);
template MicroKernelT<float> micro_avx2(Norm);

template <typename T>
PackFnT<T> pack_avx2(int S) {
  if constexpr (std::is_same_v<T, double>) {
    return pack_table<simd::Avx2F64, 4, 8>(S);
  } else {
    return pack_table<simd::Avx2F32, 8>(S);
  }
}

template PackFnT<double> pack_avx2(int);
template PackFnT<float> pack_avx2(int);

}  // namespace gsknn::core

#endif  // GSKNN_BUILD_AVX2
