// The host-speed calibration loop (calibrate.hpp). Built with fixed flags
// of its own (CMakeLists.txt), so no change to the library or its build
// flags changes how long it takes.
#include "calibrate.hpp"

#include <chrono>

namespace e2e {
namespace {

constexpr int kPoints = 128;
constexpr int kDim = 64;
constexpr int kReps = 24;

struct Block {
  double a[kPoints * kDim];
  double b[kPoints * kDim];
  Block() {
    for (int i = 0; i < kPoints * kDim; ++i) {
      a[i] = static_cast<double>(i % 7) * 0.25;
      b[i] = static_cast<double>(i % 5) * 0.5;
    }
  }
};

volatile double sink;

}  // namespace

double calibration_ms() {
  static const Block blk;
  const auto t0 = std::chrono::steady_clock::now();
  double total = 0.0;
  for (int r = 0; r < kReps; ++r) {
    // The shift differs per repetition, so no repetition can be folded
    // into another.
    const double shift = 1e-3 * r;
    for (int i = 0; i < kPoints; ++i) {
      for (int j = 0; j < kPoints; ++j) {
        double acc = 0.0;
        for (int p = 0; p < kDim; ++p) {
          const double t = blk.a[i * kDim + p] - blk.b[j * kDim + p] + shift;
          acc += t * t;
        }
        total += acc;
      }
    }
  }
  sink = total;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace e2e
