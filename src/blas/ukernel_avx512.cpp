// AVX-512F GEMM micro-kernels: the GSKNN register tile at
// f64_tile(kAvx512) = 16×8 doubles and 16×8 floats.
#include "ukernel.hpp"

#if defined(GSKNN_BUILD_AVX512)

#include "simd_tile.hpp"

namespace gsknn::blas {

template <typename T>
UKernelT<T> ukernel_avx512() {
  if constexpr (std::is_same_v<T, double>) {
    using V = simd::Avx512F64;
    constexpr TileShape t = f64_tile(SimdLevel::kAvx512);
    constexpr int mv = t.mr / V::kLanes;
    return {simd::gemm_ukernel<V, mv, t.nr>, mv * V::kLanes, t.nr};
  } else {
    using V = simd::Avx512F32;
    return {simd::gemm_ukernel<V, 1, 8>, V::kLanes, 8};
  }
}

template UKernelT<double> ukernel_avx512();
template UKernelT<float> ukernel_avx512();

}  // namespace gsknn::blas

#endif  // GSKNN_BUILD_AVX512
