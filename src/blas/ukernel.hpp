// GEMM micro-kernel contract (internal).
//
// A micro-kernel computes one register-resident m_r × n_r tile:
//   tile(i, j) = Σ_{p<kc} Ap[p·mr + i] · Bp[p·nr + j]
// from zero, then writes  C := alpha·tile + beta·C  (beta == 0 means C is
// uninitialized and must be overwritten, never read).
//
// Ap/Bp are packed slivers: mr (resp. nr) contiguous elements per depth
// step, zero-padded at the edges by the packing routines so the kernel can
// always execute the full tile. Edge tiles in C are handled by the caller
// writing through a temporary. Tile geometry travels with the kernel in
// UKernelT so each (ISA, scalar) pair picks its own shape:
//   scalar    8×4 (double and float)
//   AVX2+FMA  8×4 double, 8×8 float
//   AVX-512F  16×8 double, 16×8 float
// The double tiles come from f64_tile() (arch.hpp). The vector kernels are
// the GSKNN register tile (simd_tile.hpp) with the alpha/beta epilogue,
// instantiated in ukernel_avx*.cpp.
#pragma once

#include "gsknn/common/arch.hpp"

namespace gsknn::blas {

/// Tile of the scalar kernels (mirrors the paper's 8×4).
inline constexpr int kMr = f64_tile(SimdLevel::kScalar).mr;
inline constexpr int kNr = f64_tile(SimdLevel::kScalar).nr;

template <typename T>
using UKernelFnT = void (*)(int kc, const T* Ap, const T* Bp, T alpha, T beta,
                            T* C, int ldc);

/// A kernel plus its tile geometry.
template <typename T>
struct UKernelT {
  UKernelFnT<T> fn = nullptr;
  int mr = kMr;
  int nr = kNr;
};

/// The vector kernel of each ISA at one precision (T = double or float).
#if defined(GSKNN_BUILD_AVX2)
template <typename T>
UKernelT<T> ukernel_avx2();
#endif
#if defined(GSKNN_BUILD_AVX512)
template <typename T>
UKernelT<T> ukernel_avx512();
#endif

/// The best kernel at or below `level`.
template <typename T>
UKernelT<T> select_ukernel(SimdLevel level);

}  // namespace gsknn::blas
