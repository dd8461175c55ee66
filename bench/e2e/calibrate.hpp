// Host-speed calibration for the end-to-end benchmark.
//
// On a virtual host shared with other tenants the same one-thread call runs
// up to 1.45x slower for minutes at a time, and every workload slows
// together. A fixed loop of squared distances over two small blocks slows
// with it: its time divided into a kernel call's held within +-3% over a
// window in which the call alone moved +-8%. The benchmark times this loop
// between pieces of measured work and reports every gated time scaled to
// the speed at which the loop takes kReferenceMs ("norm" metrics).
#pragma once

namespace e2e {

/// Calibration loop time, in ms, at the reference speed.
inline constexpr double kReferenceMs = 10.0;

/// Runs the calibration loop once and returns its wall time in ms.
double calibration_ms();

}  // namespace e2e
