// The one place a kernel layer closes its call into a KernelProfile: the
// fused driver, the GEMM baseline, parallel_refs and knn_batch all finish
// through here, so a sink's metadata always describes its latest call.
#pragma once

#include <span>

#include "gsknn/common/telemetry.hpp"
#include "gsknn/model/perf_model.hpp"

namespace gsknn::core {

/// What a finished call reports about itself.
struct ProfiledCall {
  const char* algorithm = "";
  const char* precision = "f64";
  model::ProblemShape shape;
  int threads = 1;
  int variant = 0;  ///< resolved selection variant (0 = n/a)
  SimdLevel level = SimdLevel::kScalar;
  BlockingParams blocking;
  model::Method method = model::Method::kVar1;  ///< prices model_gflops
  /// The producer tallies work counters (the fused driver does).
  bool counters_enabled = false;
  std::size_t workspace_bytes = 0;
  std::size_t workspace_cap = 0;
  int workspace_retiles = 0;
};

/// Close `call` into the recorder's sink: add each single-threaded worker
/// profile as its thread slot's share (worker t on slot t), reduce the slots
/// with the recorder's wall time as one invocation plus its (2d+3)·m·n
/// flops, then stamp the metadata and roofs. No-op when inactive.
inline void finish_profile(telemetry::Recorder& rec, const ProfiledCall& call,
                           std::span<const telemetry::KernelProfile> workers =
                               {}) {
  telemetry::KernelProfile* const P = rec.sink();
  if (P == nullptr) return;
  for (std::size_t t = 0; t < workers.size(); ++t) {
    rec.absorb(static_cast<int>(t), workers[t]);
  }
  rec.aggregate(rec.wall_seconds());
  P->flops += (2.0 * call.shape.d + 3.0) * static_cast<double>(call.shape.m) *
              static_cast<double>(call.shape.n);
  P->algorithm = call.algorithm;
  P->precision = call.precision;
  P->m = call.shape.m;
  P->n = call.shape.n;
  P->d = call.shape.d;
  P->k = call.shape.k;
  P->threads = call.threads;
  P->variant = call.variant;
  P->simd_level = static_cast<int>(call.level);
  P->blocking = call.blocking;
  P->workspace_bytes = call.workspace_bytes;
  P->workspace_cap = call.workspace_cap;
  P->workspace_retiles = call.workspace_retiles;
  const model::MachineParams& mp = model::machine();
  P->model_gflops =
      call.shape.m > 0 && call.shape.n > 0
          ? model::predicted_gflops(call.method, call.shape, mp, call.blocking)
          : 0.0;
  // Machine ceilings for the roofline reporter: the profile JSON carries
  // everything tools/roofline_report.py needs in one file.
  P->peak_gflops = mp.peak_flops / 1e9;
  P->peak_gbs = model::peak_stream_gbs(mp);
  P->counters_enabled = P->counters_enabled || call.counters_enabled;
}

}  // namespace gsknn::core
