// Runtime CPU feature detection, cache hierarchy discovery, and derivation of
// the GSKNN/GEMM blocking parameters (m_r, n_r, d_c, m_c, n_c).
//
// The derivation rules follow §2.4 of the paper (which in turn follows the
// analytical BLIS model of Low et al.):
//   * m_r × n_r  — register tile; sized so enough independent FMA chains are
//     in flight to cover the FMA latency.
//   * d_c        — depth block; m_r·d_c + n_r·d_c doubles ≈ 3/4 of L1.
//   * m_c        — m_c·d_c doubles (the packed Qc panel) ≈ 3/4 of L2.
//   * n_c        — d_c·n_c doubles (the packed Rc panel) fits in L3.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace gsknn {

/// Instruction-set levels the dispatcher distinguishes. Higher values imply
/// all lower ones are available.
enum class SimdLevel : int {
  kScalar = 0,  ///< portable C++ only
  kAvx2 = 2,    ///< AVX2 + FMA3 (8×4 double micro-kernels)
  kAvx512 = 3,  ///< AVX-512F (16×8 double micro-kernels)
};

/// CPUID-derived feature flags.
struct CpuFeatures {
  bool sse2 = false;
  bool avx = false;
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;

  /// Highest level usable by this build *and* this machine. The environment
  /// override GSKNN_MAX_SIMD=avx2|avx512|scalar caps it (tests and A/B
  /// comparisons).
  SimdLevel best_level() const;
};

/// Sizes of the data-cache hierarchy in bytes; zero when undiscoverable
/// (then conservative defaults are substituted by default_blocking()).
struct CacheInfo {
  std::size_t l1d = 32 * 1024;
  std::size_t l2 = 256 * 1024;
  std::size_t l3 = 8 * 1024 * 1024;
  std::size_t line = 64;
};

/// Blocking parameters for the six-loop GSKNN/GEMM nest. All counts are in
/// elements (doubles), not bytes. mr/nr must match the micro-kernel the
/// dispatcher selects; default_blocking() guarantees that.
struct BlockingParams {
  int mr = 8;     ///< register-tile rows (queries)
  int nr = 4;     ///< register-tile columns (references)
  int dc = 256;   ///< depth (dimension) block — 5th loop
  int mc = 104;   ///< query block — 4th loop
  int nc = 4096;  ///< reference block — 6th loop

  bool valid() const {
    return mr > 0 && nr > 0 && dc > 0 && mc >= mr && nc >= nr && mc % mr == 0 &&
           nc % nr == 0;
  }
};

/// Depth-loop iterations ahead the micro-kernels prefetch the packed query
/// panel (one iteration consumes one m_r-sliver). This is the one streaming
/// prefetch that pays for itself: the Q panel is the tile loop's widest
/// stream (m_r elements per iteration vs n_r for R), so the look-ahead keeps
/// the next lines in flight without the per-stream contention that sank the
/// R-panel and heap-root prefetch experiments (see EXPERIMENTS.md "Hot-path
/// tuning"). Compile-time on purpose — a runtime distance would put a load
/// of the parameter inside the FMA loop.
inline constexpr int kMicroQPrefetchIters = 8;

/// Upper bounds on every micro-kernel's register tile, GSKNN and GEMM alike
/// (sizes of per-tile scratch arrays); the vector tile template
/// static_asserts each instantiated shape against them.
inline constexpr int kMaxMr = 16;
inline constexpr int kMaxNr = 8;

/// A register tile: mr rows (queries) × nr columns (references).
struct TileShape {
  int mr;
  int nr;
};

/// The double-precision register tile of each SIMD level, written down once:
/// default_blocking() derives its blocking from it and the f64 kernels
/// (micro_*.cpp, ukernel_*.cpp) are instantiated at it, so explicit blocking
/// from default_blocking() always matches the kernel dispatch picks.
///   scalar, AVX2+FMA  8×4   the paper's m_r = 8, n_r = 4 on AVX
///   AVX-512F          16×8  two zmm rows × 8 columns: 16 of the 32 zmm
///                           registers accumulate, 10 loads per 16 FMAs
constexpr TileShape f64_tile(SimdLevel level) {
  return level == SimdLevel::kAvx512 ? TileShape{16, 8} : TileShape{8, 4};
}

/// Detect CPU features via CPUID (cached after first call).
const CpuFeatures& cpu_features();

/// Discover cache sizes (sysfs on Linux, with sane fallbacks; cached).
const CacheInfo& cache_info();

/// Derive blocking parameters for `level` from the cache hierarchy using the
/// §2.4 rules (double precision, the register tile f64_tile(level)).
/// Deterministic for a given machine.
BlockingParams default_blocking(SimdLevel level);

/// Generic derivation for an arbitrary tile and element size — the §2.4
/// rules parameterized: d_c fills 3/4 of L1 with the two micro-panels, m_c
/// fills 3/4 of L2 with the packed query panel, n_c half of L3 with the
/// reference panel.
BlockingParams derive_blocking(int mr, int nr, int elem_bytes);

/// Human-readable one-line description (for bench headers).
std::string arch_summary();

}  // namespace gsknn
