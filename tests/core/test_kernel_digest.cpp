// Bitwise golden digests of the vectorized kernels.
//
// The oracle suites compare against a scalar reference with a tolerance, so
// a kernel rewrite that changes rounding (a reordered accumulation, a fused
// multiply-add split in two, a different max operand order) would pass them.
// This suite pins the exact bits instead: it FNV-hashes the sorted
// (distance bits, id) rows of knn_kernel and the C matrices of dgemm/sgemm
// and compares them with a committed table, keyed by the SIMD level the
// library dispatches to. It is registered once per GSKNN_MAX_SIMD cap (see
// tests/CMakeLists.txt), so each level the host has is checked; a level the
// host lacks is simply never dispatched to. ℓp is left out: its std::pow
// comes from libm and may differ between hosts.
//
// Every shape uses d = 520 > 512, the largest depth block derive_blocking
// picks, so the Cin reload between depth blocks runs on any host for both
// the column-major (Var#1) and query-major (Var#5) tile layouts. knn results
// do not depend on where the depth blocks split (the accumulators round-trip
// through memory exactly); GEMM results do, so the GEMM inner dimension stays
// at or below the smallest depth block (32) and the table holds on any cache.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "gsknn/blas/gemm.hpp"
#include "gsknn/common/arch.hpp"
#include "gsknn/common/rng.hpp"
#include "gsknn/core/knn.hpp"

namespace gsknn {
namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  template <typename V>
  void add(V v) {
    unsigned char b[sizeof(V)];
    std::memcpy(b, &v, sizeof(V));
    for (unsigned char c : b) h = (h ^ c) * 1099511628211ull;
  }
};

struct Golden {
  SimdLevel level;
  const char* name;
  std::uint64_t digest;
};

// Regenerate by running the suite at each level: a mismatch prints the
// table rows it computed.
const Golden kGolden[] = {
    {SimdLevel::kAvx512, "f64/l2", 0x82299ab2f8d02427ull},
    {SimdLevel::kAvx512, "f64/l1", 0x9ab6b7d22beb4d83ull},
    {SimdLevel::kAvx512, "f64/linf", 0xa68cf7ac0a49cfa3ull},
    {SimdLevel::kAvx512, "f64/cosine", 0x1682bf4ea4c563b7ull},
    {SimdLevel::kAvx512, "f32/l2", 0x6fcd8d5c388a61bfull},
    {SimdLevel::kAvx512, "f32/l1", 0xf77751faf98d286bull},
    {SimdLevel::kAvx512, "f32/linf", 0x03b22a19c786967full},
    {SimdLevel::kAvx512, "f32/cosine", 0x4a4903044ad07cafull},
    {SimdLevel::kAvx512, "dgemm/beta0", 0x8a4cc1ec64687e47ull},
    {SimdLevel::kAvx512, "dgemm/beta", 0x866f9a3180790323ull},
    {SimdLevel::kAvx512, "sgemm/beta0", 0x94995cd41ded6df6ull},
    {SimdLevel::kAvx512, "sgemm/beta", 0x4e4a577d5fcda072ull},
    {SimdLevel::kAvx2, "f64/l2", 0x82299ab2f8d02427ull},
    {SimdLevel::kAvx2, "f64/l1", 0x9ab6b7d22beb4d83ull},
    {SimdLevel::kAvx2, "f64/linf", 0xa68cf7ac0a49cfa3ull},
    {SimdLevel::kAvx2, "f64/cosine", 0x1682bf4ea4c563b7ull},
    {SimdLevel::kAvx2, "f32/l2", 0x6fcd8d5c388a61bfull},
    {SimdLevel::kAvx2, "f32/l1", 0xf77751faf98d286bull},
    {SimdLevel::kAvx2, "f32/linf", 0x03b22a19c786967full},
    {SimdLevel::kAvx2, "f32/cosine", 0x4a4903044ad07cafull},
    {SimdLevel::kAvx2, "dgemm/beta0", 0x8a4cc1ec64687e47ull},
    {SimdLevel::kAvx2, "dgemm/beta", 0x866f9a3180790323ull},
    {SimdLevel::kAvx2, "sgemm/beta0", 0x94995cd41ded6df6ull},
    {SimdLevel::kAvx2, "sgemm/beta", 0x4e4a577d5fcda072ull},
    {SimdLevel::kScalar, "f64/l2", 0xd00219cc1e0a888bull},
    {SimdLevel::kScalar, "f64/l1", 0x9ab6b7d22beb4d83ull},
    {SimdLevel::kScalar, "f64/linf", 0xa68cf7ac0a49cfa3ull},
    {SimdLevel::kScalar, "f64/cosine", 0x7c3340468ba6f3ffull},
    {SimdLevel::kScalar, "f32/l2", 0x4f4e7b8b287921a3ull},
    {SimdLevel::kScalar, "f32/l1", 0xf77751faf98d286bull},
    {SimdLevel::kScalar, "f32/linf", 0x03b22a19c786967full},
    {SimdLevel::kScalar, "f32/cosine", 0x227e4fcd7867894full},
    {SimdLevel::kScalar, "dgemm/beta0", 0x2832bcbad6976192ull},
    {SimdLevel::kScalar, "dgemm/beta", 0xbd0f46397b34a711ull},
    {SimdLevel::kScalar, "sgemm/beta0", 0x79d2d5a57422a479ull},
    {SimdLevel::kScalar, "sgemm/beta", 0x6a17825eec3eea98ull},
};

struct Shape {
  int m, n;
};

/// One tile-aligned shape (a multiple of every tile, 16×8 included) and two
/// edge shapes off every tile grid.
const Shape kShapes[] = {{32, 320}, {37, 333}, {5, 301}};
constexpr int kDim = 520;

/// m + n points with coordinates uniform in [-1, 1); the first reference
/// is the origin, so the cosine finish takes its zero-norm branch.
template <typename T>
PointTableT<T> make_points(int m, int n, std::uint64_t seed) {
  PointTableT<T> X(kDim, m + n);
  Xoshiro256 rng(seed);
  for (int i = 0; i < m + n; ++i) {
    for (int r = 0; r < kDim; ++r) {
      X.at(r, i) = i == m ? T(0) : static_cast<T>(rng.uniform(-1.0, 1.0));
    }
  }
  X.compute_norms();
  return X;
}

template <typename T>
std::uint64_t knn_digest(Norm norm) {
  Fnv h;
  std::uint64_t seed = 1;
  for (const Shape& s : kShapes) {
    const PointTableT<T> X = make_points<T>(s.m, s.n, seed++);
    std::vector<int> q(static_cast<std::size_t>(s.m));
    std::vector<int> r(static_cast<std::size_t>(s.n));
    std::iota(q.begin(), q.end(), 0);
    std::iota(r.begin(), r.end(), s.m);
    for (Variant v : {Variant::kVar1, Variant::kVar5}) {
      for (int k : {1, 16, 300}) {
        KnnConfig cfg;
        cfg.norm = norm;
        cfg.variant = v;
        cfg.threads = 1;
        NeighborTableT<T> t(s.m, k);
        knn_kernel(X, q, r, t, cfg);
        for (int i = 0; i < s.m; ++i) {
          for (const auto& [d, id] : t.sorted_row(i)) {
            h.add(d);
            h.add(id);
          }
        }
      }
    }
  }
  return h.h;
}

template <typename T, typename Gemm>
std::uint64_t gemm_digest(Gemm gemm, T beta) {
  Fnv h;
  Xoshiro256 rng(99);
  // (m, n, inner): tile-aligned, then edge tiles in both dimensions.
  const int shapes[][3] = {{64, 32, 32}, {37, 21, 29}, {5, 11, 17}};
  for (const auto& s : shapes) {
    const int m = s[0], n = s[1], kk = s[2];
    std::vector<T> a(static_cast<std::size_t>(m) * kk);
    std::vector<T> b(static_cast<std::size_t>(kk) * n);
    std::vector<T> c(static_cast<std::size_t>(m) * n);
    for (T& x : a) x = static_cast<T>(rng.uniform(-1.0, 1.0));
    for (T& x : b) x = static_cast<T>(rng.uniform(-1.0, 1.0));
    for (T& x : c) x = static_cast<T>(rng.uniform(-1.0, 1.0));
    gemm(blas::Trans::kYes, blas::Trans::kNo, m, n, kk, T(-2), a.data(), kk,
         b.data(), kk, beta, c.data(), m);
    for (T x : c) h.add(x);
  }
  return h.h;
}

const char* level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "kScalar";
    case SimdLevel::kAvx2:
      return "kAvx2";
    case SimdLevel::kAvx512:
      return "kAvx512";
  }
  return "?";
}

TEST(KernelDigest, MatchesGoldenTable) {
  const SimdLevel level = cpu_features().best_level();
  const std::pair<std::string, std::uint64_t> got[] = {
      {"f64/l2", knn_digest<double>(Norm::kL2Sq)},
      {"f64/l1", knn_digest<double>(Norm::kL1)},
      {"f64/linf", knn_digest<double>(Norm::kLInf)},
      {"f64/cosine", knn_digest<double>(Norm::kCosine)},
      {"f32/l2", knn_digest<float>(Norm::kL2Sq)},
      {"f32/l1", knn_digest<float>(Norm::kL1)},
      {"f32/linf", knn_digest<float>(Norm::kLInf)},
      {"f32/cosine", knn_digest<float>(Norm::kCosine)},
      {"dgemm/beta0", gemm_digest<double>(blas::dgemm, 0.0)},
      {"dgemm/beta", gemm_digest<double>(blas::dgemm, 0.75)},
      {"sgemm/beta0", gemm_digest<float>(blas::sgemm, 0.0f)},
      {"sgemm/beta", gemm_digest<float>(blas::sgemm, 0.75f)},
  };
  std::string rows;
  bool ok = true;
  for (const auto& [name, digest] : got) {
    char row[96];
    std::snprintf(row, sizeof row, "    {SimdLevel::%s, \"%s\", 0x%016llxull},\n",
                  level_name(level), name.c_str(),
                  static_cast<unsigned long long>(digest));
    rows += row;
    bool found = false;
    for (const Golden& g : kGolden) {
      if (g.level == level && name == g.name) {
        found = true;
        ok = ok && g.digest == digest;
      }
    }
    ok = ok && found;
  }
  EXPECT_TRUE(ok) << "kernel output bits differ from the golden table at "
                  << level_name(level) << "; computed:\n"
                  << rows;
}

}  // namespace
}  // namespace gsknn
