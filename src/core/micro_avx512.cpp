// AVX-512F fused micro-kernels (ℓ2, ℓ1, ℓ∞, cosine): the tile template at
// f64_tile(kAvx512) = 16×8 doubles and 16×8 floats. Beside them, the
// transpose pack for their 16-wide slivers (narrower ones fall back to the
// AVX2 packs).
#if defined(GSKNN_BUILD_AVX512)

#include "micro_simd.hpp"
#include "pack_simd.hpp"

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

template <typename T>
PackFnT<T> pack_avx512(int S) {
  if constexpr (std::is_same_v<T, double>) {
    return pack_table<simd::Avx2F64, 16>(S);
  } else {
    return pack_table<simd::Avx2F32, 16>(S);
  }
}

template PackFnT<double> pack_avx512(int);
template PackFnT<float> pack_avx512(int);

}  // namespace gsknn::core

#endif  // GSKNN_BUILD_AVX512
