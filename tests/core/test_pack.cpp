// The general-stride pack (src/core/pack.hpp) on its own. pack_points_rt,
// at the SIMD level this process dispatches to, must write the same bytes
// as the scalar reference pack_points<S> for both precisions and every
// sliver width the kernels use (4, 8, 16): full groups, the zero-padded tail
// group, depth blocks that are not a multiple of the vector lane count, a
// depth offset p0 > 0, an index-list offset i0 > 0, repeated ids and
// NaN/±Inf coordinates. Neither pack may write a byte past the panel.
// pack_norms must zero-pad the norms to a whole sliver. The suite is
// registered again under GSKNN_MAX_SIMD caps (tests/CMakeLists.txt), so
// every level's vector pack is checked against the same reference.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "../../src/core/pack.hpp"
#include "gsknn/common/aligned.hpp"
#include "gsknn/common/arch.hpp"

namespace gsknn::core {
namespace {

constexpr unsigned char kSentinel = 0xA5;
constexpr int kSlack = 64;  ///< sentinel elements checked past the panel
constexpr int kWidths[] = {4, 8, 16};

/// Random coordinates in [-1, 1] with a NaN, a negative NaN, +Inf and -Inf
/// planted in the first points, so a pack that canonicalizes or drops a
/// non-finite value shows up in the byte comparison.
template <typename T>
PointTableT<T> make_table(int d, int n, unsigned seed) {
  PointTableT<T> X(d, n);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int i = 0; i < n; ++i) {
    for (int r = 0; r < d; ++r) X.at(r, i) = static_cast<T>(u(rng));
  }
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const T inf = std::numeric_limits<T>::infinity();
  X.at(0, 1) = nan;
  X.at(d / 2, 2) = -nan;
  X.at(d - 1, 3) = inf;
  X.at((d - 1) / 3, 4) = -inf;
  X.compute_norms();
  return X;
}

/// `len` ids into a table of `n` points, every third one repeating its
/// predecessor.
std::vector<int> make_ids(int len, int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> u(0, n - 1);
  std::vector<int> ids(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) {
    ids[static_cast<std::size_t>(i)] =
        (i % 3 == 2) ? ids[static_cast<std::size_t>(i - 1)] : u(rng);
  }
  return ids;
}

template <typename T>
void reference_pack(int S, const PointTableT<T>& X, const int* idx, int i0,
                    int count, int p0, int db, T* dst) {
  switch (S) {
    case 4:
      return pack_points<4>(X, idx, i0, count, p0, db, dst);
    case 8:
      return pack_points<8>(X, idx, i0, count, p0, db, dst);
    default:
      return pack_points<16>(X, idx, i0, count, p0, db, dst);
  }
}

bool sentinel_kept(const void* p, std::size_t bytes) {
  const auto* c = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < bytes; ++i) {
    if (c[i] != kSentinel) return false;
  }
  return true;
}

/// Pack idx[i0, i0 + count) over depth [p0, p0 + db) both ways into
/// sentinel-filled buffers and compare every byte.
template <typename T>
void expect_same_pack(int S, const PointTableT<T>& X,
                      const std::vector<int>& idx, int i0, int count, int p0,
                      int db) {
  const std::size_t panel = static_cast<std::size_t>(
      round_up(static_cast<std::size_t>(count), static_cast<std::size_t>(S)) *
      static_cast<std::size_t>(db));
  AlignedBuffer<T> got(panel + kSlack);
  AlignedBuffer<T> want(panel + kSlack);
  std::memset(got.data(), kSentinel, (panel + kSlack) * sizeof(T));
  std::memset(want.data(), kSentinel, (panel + kSlack) * sizeof(T));
  pack_points_rt(S, cpu_features().best_level(), X, idx.data(), i0, count, p0,
                 db, got.data());
  reference_pack(S, X, idx.data(), i0, count, p0, db, want.data());
  SCOPED_TRACE(testing::Message() << "S=" << S << " d=" << X.dim()
                                  << " count=" << count << " i0=" << i0
                                  << " p0=" << p0 << " db=" << db);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), panel * sizeof(T)), 0);
  EXPECT_TRUE(sentinel_kept(got.data() + panel, kSlack * sizeof(T)));
  EXPECT_TRUE(sentinel_kept(want.data() + panel, kSlack * sizeof(T)));
}

template <typename T>
class PackTest : public ::testing::Test {};
using Precisions = ::testing::Types<double, float>;
TYPED_TEST_SUITE(PackTest, Precisions);

TYPED_TEST(PackTest, MatchesScalarReferenceAtEveryWidthCountAndDepth) {
  using T = TypeParam;
  constexpr int kPoints = 97;
  for (int d = 1; d <= 64; ++d) {
    const PointTableT<T> X = make_table<T>(d, kPoints, 11u + d);
    const std::vector<int> idx = make_ids(3 + 3 * 16 + 5, kPoints, 7u * d);
    // Whole depth from the start, and an interior block p0 > 0 whose
    // length is rarely a multiple of the lane count.
    const int p0 = d / 3;
    const int db = d - p0 - (d > 8 ? 2 : 0);
    for (int S : kWidths) {
      for (int count : {0, 1, S - 1, S, 3 * S + 5}) {
        expect_same_pack<T>(S, X, idx, 0, count, 0, d);
        if (db > 0) expect_same_pack<T>(S, X, idx, 3, count, p0, db);
      }
    }
  }
}

TYPED_TEST(PackTest, EveryIdRepeatingOneNonFinitePoint) {
  using T = TypeParam;
  const PointTableT<T> X = make_table<T>(29, 8, 5u);
  for (int point = 1; point <= 4; ++point) {
    const std::vector<int> idx(64, point);
    for (int S : kWidths) {
      expect_same_pack<T>(S, X, idx, 0, 3 * S + 5, 0, 29);
      expect_same_pack<T>(S, X, idx, 1, 2 * S, 4, 19);
    }
  }
}

TYPED_TEST(PackTest, NormsZeroPadTheTailSliver) {
  using T = TypeParam;
  const PointTableT<T> X = make_table<T>(13, 41, 3u);
  const std::vector<int> idx = make_ids(64, 41, 9u);
  const int i0 = 2;
  for (int S : kWidths) {
    for (int count : {0, 1, S - 1, S, 3 * S + 5}) {
      SCOPED_TRACE(testing::Message() << "S=" << S << " count=" << count);
      const int padded = static_cast<int>(round_up(
          static_cast<std::size_t>(count), static_cast<std::size_t>(S)));
      std::vector<T> dst(static_cast<std::size_t>(padded + kSlack));
      std::memset(dst.data(), kSentinel, dst.size() * sizeof(T));
      pack_norms(S, X, idx.data(), i0, count, dst.data());
      for (int i = 0; i < count; ++i) {
        const T want = X.norms2()[idx[static_cast<std::size_t>(i0 + i)]];
        EXPECT_EQ(std::memcmp(&dst[static_cast<std::size_t>(i)], &want,
                              sizeof(T)),
                  0)
            << "lane " << i;
      }
      const T zero = T(0);
      for (int i = count; i < padded; ++i) {
        EXPECT_EQ(std::memcmp(&dst[static_cast<std::size_t>(i)], &zero,
                              sizeof(T)),
                  0)
            << "padding lane " << i;
      }
      EXPECT_TRUE(sentinel_kept(dst.data() + padded, kSlack * sizeof(T)));
    }
  }
}

}  // namespace
}  // namespace gsknn::core
