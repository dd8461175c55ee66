// AVX2+FMA GEMM micro-kernels: the GSKNN register tile at
// f64_tile(kAvx2) = 8×4 doubles and 8×8 floats.
#include "ukernel.hpp"

#if defined(GSKNN_BUILD_AVX2)

#include "simd_tile.hpp"

namespace gsknn::blas {

template <typename T>
UKernelT<T> ukernel_avx2() {
  if constexpr (std::is_same_v<T, double>) {
    using V = simd::Avx2F64;
    constexpr TileShape t = f64_tile(SimdLevel::kAvx2);
    constexpr int mv = t.mr / V::kLanes;
    return {simd::gemm_ukernel<V, mv, t.nr>, mv * V::kLanes, t.nr};
  } else {
    using V = simd::Avx2F32;
    return {simd::gemm_ukernel<V, 1, 8>, V::kLanes, 8};
  }
}

template UKernelT<double> ukernel_avx2();
template UKernelT<float> ukernel_avx2();

}  // namespace gsknn::blas

#endif  // GSKNN_BUILD_AVX2
