// Overhead guard for the always-on aggregate metrics layer
// (gsknn/common/metrics.hpp): the registry records one (status, latency,
// shape) sample per kernel entry, and the budget for that is <= 1% of
// end-to-end runtime on the Table-5 shapes — small enough to leave armed in
// production, which is the whole point of the layer.
//
// Two measurements:
//   1. raw primitive cost: ns per record_call() while armed and while
//      disarmed (the disarmed path is one relaxed atomic load);
//   2. end-to-end: the exact kernel over a Table-5 shape, disarmed and
//      armed in interleaved pairs (bench_util's interleaved_ab); the
//      overhead is the median per-pair armed/disarmed ratio, judged
//      against the budget, with its quartiles beside it.
//
// The measured numbers are recorded in EXPERIMENTS.md; the JSON row (via
// GSKNN_BENCH_JSON) carries them for trend tracking.
#include <cstdio>

#include "bench_util.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/data/generators.hpp"

using namespace gsknn;
using namespace gsknn::bench;

namespace {

/// ns per record_call with the registry in its current armed state.
double record_ns_per_op(long iters) {
  WallTimer t;
  for (long i = 0; i < iters; ++i) {
    metrics::record_call(metrics::EntryPoint::kKernelF64, 0,
                         static_cast<std::uint64_t>(1000 + (i & 1023)), 4096,
                         4096, 64, 16);
  }
  return t.seconds() * 1e9 / static_cast<double>(iters);
}

}  // namespace

int main() {
  print_header("micro_metrics — aggregate-metrics hot-path overhead");
  const bool was_enabled = metrics::enabled();

  // 1. Raw primitive cost. The armed path is a steady_clock-free shard
  //    update (the caller supplies the latency); the disarmed path is the
  //    enabled() check alone.
  const long iters = quick_mode() ? 2'000'000 : 20'000'000;
  metrics::set_enabled(true);
  const double armed_ns = record_ns_per_op(iters);
  metrics::set_enabled(false);
  const double disarmed_ns = record_ns_per_op(iters);
  std::printf("record_call: %.1f ns armed, %.2f ns disarmed (%ld iters)\n",
              armed_ns, disarmed_ns, iters);

  // 2. End-to-end on a Table-5 shape: m = n = 8192, d = 64, k = 16 (quick
  //    mode shrinks m = n to 2048). One entry records exactly one sample +
  //    one drift evaluation, so small shapes are the worst case; many calls
  //    amortize nothing.
  const int m = scaled(8192, 2048);
  const int d = 64, k = 16;
  const PointTable X = make_uniform(d, 2 * m, 0x7AB1E5);
  const auto q = iota_ids(m);
  const auto r = iota_ids(m, m);
  KnnConfig cfg;
  NeighborTable t(m, k);
  const int pairs = 41;
  const auto run = [&](bool armed) {
    metrics::set_enabled(armed);
    t.reset();
    knn_kernel(X, q, r, t, cfg);
  };
  metrics::reset();
  const AbStats ab = interleaved_ab(
      pairs, [&] { run(false); }, [&] { run(true); });
  const double overhead_pct = (ab.ratio_med - 1.0) * 100.0;
  const double q1_pct = (ab.ratio_q1 - 1.0) * 100.0;
  const double q3_pct = (ab.ratio_q3 - 1.0) * 100.0;
  std::printf("kernel m=n=%d d=%d k=%d, %d interleaved pairs: median %.3f ms "
              "armed [%.3f, %.3f], %.3f ms disarmed [%.3f, %.3f]\n",
              m, d, k, pairs, ab.b_med * 1e3, ab.b_q1 * 1e3, ab.b_q3 * 1e3,
              ab.a_med * 1e3, ab.a_q1 * 1e3, ab.a_q3 * 1e3);
  std::printf("overhead (median armed/disarmed pair ratio) %+.2f%% "
              "IQR [%+.2f%%, %+.2f%%] (budget <= 1%%)\n",
              overhead_pct, q1_pct, q3_pct);
  std::printf("budget check: %s\n",
              overhead_pct <= 1.0 ? "PASS (<= 1%)" : "OVER BUDGET");

  char row[320];
  std::snprintf(row, sizeof(row),
                "\"m\":%d,\"d\":%d,\"k\":%d,\"record_armed_ns\":%.2f,"
                "\"record_disarmed_ns\":%.3f,\"kernel_armed_ms\":%.3f,"
                "\"kernel_disarmed_ms\":%.3f,\"overhead_pct\":%.3f,"
                "\"overhead_q1_pct\":%.3f,\"overhead_q3_pct\":%.3f",
                m, d, k, armed_ns, disarmed_ns, ab.b_med * 1e3,
                ab.a_med * 1e3, overhead_pct, q1_pct, q3_pct);
  emit_json_row("micro_metrics", row);

  metrics::set_enabled(was_enabled);
  return 0;
}
