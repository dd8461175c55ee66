// AVX-512F GEMM micro-kernels: the GSKNN register tile at 16×4 doubles and
// 16×8 floats.
#include "ukernel.hpp"

#if defined(GSKNN_BUILD_AVX512)

#include "simd_tile.hpp"

namespace gsknn::blas {

template <typename T>
UKernelT<T> ukernel_avx512() {
  if constexpr (std::is_same_v<T, double>) {
    using V = simd::Avx512F64;
    return {simd::gemm_ukernel<V, 2, 4>, 2 * V::kLanes, 4};
  } else {
    using V = simd::Avx512F32;
    return {simd::gemm_ukernel<V, 1, 8>, V::kLanes, 8};
  }
}

template UKernelT<double> ukernel_avx512();
template UKernelT<float> ukernel_avx512();

}  // namespace gsknn::blas

#endif  // GSKNN_BUILD_AVX512
