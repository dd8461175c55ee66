// Wall-clock stopwatch for benches and the tree solvers' build/kernel
// split. steady_clock-based; resolution is tens of nanoseconds, far below
// the millisecond-scale intervals being measured.
#pragma once

#include <chrono>

namespace gsknn {

/// Simple stopwatch. start() may be called repeatedly to restart.
class WallTimer {
 public:
  WallTimer() { start(); }

  void start() { t0_ = Clock::now(); }

  /// Seconds since the last start().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  double milliseconds() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point t0_;
};

}  // namespace gsknn
