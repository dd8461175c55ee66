// Small, dependency-free macros and compile-time constants shared by every
// module. Nothing here allocates or touches the OS.
#pragma once

#include <cassert>
#include <cstddef>

#if defined(__GNUC__) || defined(__clang__)
#define GSKNN_RESTRICT __restrict__
#define GSKNN_ALWAYS_INLINE inline __attribute__((always_inline))
#define GSKNN_NOINLINE __attribute__((noinline))
#define GSKNN_INLINE_LAMBDA __attribute__((always_inline))
#define GSKNN_LIKELY(x) __builtin_expect(!!(x), 1)
#define GSKNN_UNLIKELY(x) __builtin_expect(!!(x), 0)
#define GSKNN_PREFETCH_R(addr) __builtin_prefetch((addr), 0, 3)
#define GSKNN_PREFETCH_W(addr) __builtin_prefetch((addr), 1, 3)
// Low-locality read prefetch for stream-through data (the pack gather reads
// each source row once per depth block; keeping it out of the upper cache
// ways protects the packed panels that ARE reused).
#define GSKNN_PREFETCH_R_LOW(addr) __builtin_prefetch((addr), 0, 1)
#else
#define GSKNN_RESTRICT
#define GSKNN_ALWAYS_INLINE inline
#define GSKNN_NOINLINE
#define GSKNN_INLINE_LAMBDA
#define GSKNN_LIKELY(x) (x)
#define GSKNN_UNLIKELY(x) (x)
#define GSKNN_PREFETCH_R(addr) ((void)0)
#define GSKNN_PREFETCH_W(addr) ((void)0)
#define GSKNN_PREFETCH_R_LOW(addr) ((void)0)
#endif

namespace gsknn {

/// Cache-line size assumed for padding decisions (x86-64).
inline constexpr std::size_t kCacheLineBytes = 64;

/// Alignment used for all packed buffers; covers AVX-512 loads.
inline constexpr std::size_t kVectorAlignBytes = 64;

/// Round `x` up to the next multiple of `step` (step > 0).
constexpr std::size_t round_up(std::size_t x, std::size_t step) {
  return ((x + step - 1) / step) * step;
}

/// Integer ceiling division.
constexpr std::size_t ceil_div(std::size_t x, std::size_t y) {
  return (x + y - 1) / y;
}

}  // namespace gsknn
