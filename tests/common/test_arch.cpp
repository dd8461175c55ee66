#include "gsknn/common/arch.hpp"

#include <gtest/gtest.h>

namespace gsknn {
namespace {

TEST(Arch, FeatureDetectionIsStable) {
  const CpuFeatures& a = cpu_features();
  const CpuFeatures& b = cpu_features();
  EXPECT_EQ(&a, &b);  // cached singleton
}

TEST(Arch, FeatureImplications) {
  const CpuFeatures& f = cpu_features();
  if (f.avx2) {
    EXPECT_TRUE(f.avx);
  }
  if (f.avx512f) {
    EXPECT_TRUE(f.avx2);
  }
}

TEST(Arch, CacheSizesAreSane) {
  const CacheInfo& c = cache_info();
  EXPECT_GE(c.l1d, 8u * 1024);
  EXPECT_GE(c.l2, c.l1d);
  EXPECT_GE(c.l3, c.l2);
  EXPECT_EQ(c.line, 64u);
}

TEST(Arch, DefaultBlockingIsValid) {
  struct Expect {
    SimdLevel level;
    int mr, nr;
  };
  for (const Expect e : {Expect{SimdLevel::kScalar, 8, 4},
                         Expect{SimdLevel::kAvx2, 8, 4},
                         Expect{SimdLevel::kAvx512, 16, 8}}) {
    const BlockingParams b = default_blocking(e.level);
    EXPECT_TRUE(b.valid());
    EXPECT_EQ(b.mr, e.mr);
    EXPECT_EQ(b.nr, e.nr);
    EXPECT_GE(b.dc, 32);
  }
}

TEST(Arch, BlockingFollowsCacheRules) {
  const CacheInfo& c = cache_info();
  const BlockingParams b = default_blocking(SimdLevel::kAvx2);
  // dc: the two micro-panels fit comfortably in L1 (§2.4 rule).
  EXPECT_LE(static_cast<std::size_t>((b.mr + b.nr) * b.dc) * sizeof(double),
            c.l1d);
  // mc·dc (packed Qc) fits in L2.
  EXPECT_LE(static_cast<std::size_t>(b.mc) * b.dc * sizeof(double), c.l2);
  // dc·nc (packed Rc) fits in L3.
  EXPECT_LE(static_cast<std::size_t>(b.dc) * b.nc * sizeof(double), c.l3);
}

TEST(Arch, BlockingParamsValidRejectsBadShapes) {
  BlockingParams b;
  EXPECT_TRUE(b.valid());
  b.mc = 7;  // not a multiple of mr = 8
  EXPECT_FALSE(b.valid());
  b = BlockingParams{};
  b.nc = 6;  // not a multiple of nr = 4
  EXPECT_FALSE(b.valid());
  b = BlockingParams{};
  b.dc = 0;
  EXPECT_FALSE(b.valid());
}

TEST(Arch, SummaryIsNonEmpty) {
  EXPECT_FALSE(arch_summary().empty());
}

TEST(Arch, DeriveBlockingRespectsCacheBudgets) {
  const CacheInfo& c = cache_info();
  struct Tile {
    int mr, nr, bytes;
  };
  for (const Tile t : {Tile{8, 4, 8}, Tile{16, 4, 8}, Tile{8, 8, 4},
                       Tile{16, 8, 4}}) {
    const BlockingParams b = derive_blocking(t.mr, t.nr, t.bytes);
    EXPECT_TRUE(b.valid());
    EXPECT_EQ(b.mr, t.mr);
    EXPECT_EQ(b.nr, t.nr);
    EXPECT_LE(static_cast<std::size_t>(t.mr + t.nr) * b.dc * t.bytes, c.l1d);
    EXPECT_LE(static_cast<std::size_t>(b.mc) * b.dc * t.bytes, c.l2);
  }
}

TEST(Arch, FloatBlockingHasDeeperDepthBlocks) {
  // Same tile, half the element size → roughly double the depth block.
  const BlockingParams d8 = derive_blocking(8, 4, 8);
  const BlockingParams f4 = derive_blocking(8, 4, 4);
  EXPECT_GE(f4.dc, d8.dc);
}

}  // namespace
}  // namespace gsknn
