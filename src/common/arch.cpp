#include "gsknn/common/arch.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "gsknn/common/macros.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define GSKNN_HAS_CPUID 1
#endif

namespace gsknn {
namespace {

CpuFeatures detect_features() {
  CpuFeatures f;
#if defined(GSKNN_HAS_CPUID)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    f.sse2 = (edx >> 26) & 1u;
    f.avx = (ecx >> 28) & 1u;
    f.fma = (ecx >> 12) & 1u;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.avx2 = (ebx >> 5) & 1u;
    f.avx512f = (ebx >> 16) & 1u;
  }
#endif
  return f;
}

/// Read one sysfs cache file; returns 0 on failure.
std::size_t read_sysfs_cache_kib(const char* path) {
  std::ifstream in(path);
  if (!in) return 0;
  std::string tok;
  in >> tok;
  if (tok.empty()) return 0;
  // Format is e.g. "32K", "256K", "25344K".
  std::size_t val = 0;
  std::size_t i = 0;
  while (i < tok.size() && tok[i] >= '0' && tok[i] <= '9') {
    val = val * 10 + static_cast<std::size_t>(tok[i] - '0');
    ++i;
  }
  if (i < tok.size() && (tok[i] == 'K' || tok[i] == 'k')) return val * 1024;
  if (i < tok.size() && (tok[i] == 'M' || tok[i] == 'm')) return val * 1024 * 1024;
  return val;
}

CacheInfo detect_caches() {
  CacheInfo c;  // default-constructed fallbacks
  struct Probe {
    const char* size;
    const char* level;
    const char* type;
  };
  // cpu0's cache indices: index0..index3 typically L1d, L1i, L2, L3.
  for (int idx = 0; idx < 6; ++idx) {
    std::ostringstream base;
    base << "/sys/devices/system/cpu/cpu0/cache/index" << idx << "/";
    std::ifstream lvl(base.str() + "level");
    std::ifstream typ(base.str() + "type");
    int level = 0;
    std::string type;
    if (!(lvl >> level) || !(typ >> type)) continue;
    const std::size_t bytes = read_sysfs_cache_kib((base.str() + "size").c_str());
    if (bytes == 0) continue;
    if (level == 1 && type == "Data") c.l1d = bytes;
    if (level == 2 && (type == "Unified" || type == "Data")) c.l2 = bytes;
    if (level == 3 && (type == "Unified" || type == "Data")) c.l3 = bytes;
  }
  return c;
}

}  // namespace

namespace {

/// GSKNN_MAX_SIMD environment cap (evaluated once).
SimdLevel max_simd_cap() {
  static const SimdLevel cap = [] {
    const char* e = std::getenv("GSKNN_MAX_SIMD");
    if (e == nullptr) return SimdLevel::kAvx512;
    const std::string s(e);
    if (s == "scalar") return SimdLevel::kScalar;
    if (s == "avx2") return SimdLevel::kAvx2;
    return SimdLevel::kAvx512;
  }();
  return cap;
}

}  // namespace

SimdLevel CpuFeatures::best_level() const {
  const SimdLevel cap = max_simd_cap();
#if defined(GSKNN_BUILD_AVX512)
  if (avx512f && fma && cap >= SimdLevel::kAvx512) return SimdLevel::kAvx512;
#endif
#if defined(GSKNN_BUILD_AVX2)
  if (avx2 && fma && cap >= SimdLevel::kAvx2) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = detect_features();
  return f;
}

const CacheInfo& cache_info() {
  static const CacheInfo c = detect_caches();
  return c;
}

BlockingParams derive_blocking(int mr, int nr, int elem_bytes) {
  const CacheInfo& c = cache_info();
  BlockingParams b;
  b.mr = mr;
  b.nr = nr;

  // d_c: (mr + nr) * dc elements ~ 3/4 of L1 (§2.4), rounded to a multiple
  // of 8 to keep the depth loop unrolled cleanly.
  const std::size_t l1_elems = c.l1d / static_cast<std::size_t>(elem_bytes);
  std::size_t dc = (3 * l1_elems / 4) / static_cast<std::size_t>(mr + nr);
  dc = std::max<std::size_t>(32, dc - dc % 8);
  b.dc = static_cast<int>(std::min<std::size_t>(dc, 512));

  // m_c: packed Qc (mc x dc elements) ~ 3/4 of L2, rounded down to mr.
  const std::size_t l2_elems = c.l2 / static_cast<std::size_t>(elem_bytes);
  std::size_t mc = (3 * l2_elems / 4) / static_cast<std::size_t>(b.dc);
  mc = std::max<std::size_t>(static_cast<std::size_t>(mr),
                             mc - mc % static_cast<std::size_t>(mr));
  b.mc = static_cast<int>(std::min<std::size_t>(mc, 2048));

  // n_c: packed Rc (dc x nc elements) ~ 1/2 of L3, rounded down to nr.
  const std::size_t l3_elems = c.l3 / static_cast<std::size_t>(elem_bytes);
  std::size_t nc = (l3_elems / 2) / static_cast<std::size_t>(b.dc);
  nc = std::max<std::size_t>(static_cast<std::size_t>(nr),
                             nc - nc % static_cast<std::size_t>(nr));
  b.nc = static_cast<int>(std::min<std::size_t>(nc, 8192));
  return b;
}

BlockingParams default_blocking(SimdLevel level) {
  const TileShape t = f64_tile(level);
  return derive_blocking(t.mr, t.nr, sizeof(double));
}

std::string arch_summary() {
  const CpuFeatures& f = cpu_features();
  const CacheInfo& c = cache_info();
  const BlockingParams b = default_blocking(f.best_level());
  const char* simd_name = "scalar";
  if (f.best_level() == SimdLevel::kAvx2) simd_name = "avx2+fma";
  if (f.best_level() == SimdLevel::kAvx512) simd_name = "avx512f";
  std::ostringstream os;
  os << "simd=" << simd_name
     << " caches(L1d/L2/L3)=" << c.l1d / 1024 << "K/" << c.l2 / 1024 << "K/"
     << c.l3 / 1024 << "K"
     << " blocking(mr,nr,dc,mc,nc)=(" << b.mr << "," << b.nr << "," << b.dc
     << "," << b.mc << "," << b.nc << ")";
  return os.str();
}

}  // namespace gsknn
