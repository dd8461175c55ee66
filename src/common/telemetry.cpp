// KernelProfile aggregation, JSON serialization and the Table-5-style
// pretty printer (see include/gsknn/common/telemetry.hpp).
#include "gsknn/common/telemetry.hpp"

#include <algorithm>
#include <cstring>

#include "gsknn/common/metrics.hpp"
#include "gsknn/common/trace.hpp"

namespace gsknn::telemetry {

namespace {

const char* const kPhaseNames[kPhaseCount] = {
    "pack_q", "pack_r", "micro", "select", "merge", "collect", "sq2d",
};

const char* const kPhaseLabels[kPhaseCount] = {
    "pack-Qc", "pack-Rc", "micro-kernel", "selection",
    "merge",   "collect", "sq2d",
};

const char* const kCounterNames[kCounterCount] = {
    "candidates_evaluated", "heap_pushes",    "root_rejects",
    "tiles",                "bytes_packed_q", "bytes_packed_r",
};

}  // namespace

const char* phase_name(Phase p) {
  const int i = static_cast<int>(p);
  return (i >= 0 && i < kPhaseCount) ? kPhaseNames[i] : "?";
}

const char* counter_name(Counter c) {
  const int i = static_cast<int>(c);
  return (i >= 0 && i < kCounterCount) ? kCounterNames[i] : "?";
}

const char* simd_level_name(int level) {
  switch (static_cast<SimdLevel>(level)) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "?";
}

double KernelProfile::phase_total() const {
  double s = 0.0;
  for (double t : phase_seconds) s += t;
  return s;
}

double KernelProfile::other_seconds() const {
  return std::max(0.0, wall_seconds - phase_total());
}

double KernelProfile::gflops() const {
  if (wall_seconds <= 0.0) return 0.0;
  return flops / wall_seconds / 1e9;
}

double KernelProfile::selection_fraction() const {
  if (wall_seconds <= 0.0) return 0.0;
  return phase(Phase::kSelect) / wall_seconds;
}

double KernelProfile::pack_bandwidth_gbs() const {
  const double t = phase(Phase::kPackQ) + phase(Phase::kPackR);
  if (t <= 0.0) return 0.0;
  const double bytes = static_cast<double>(counter(Counter::kBytesPackedQ) +
                                           counter(Counter::kBytesPackedR));
  return bytes / t / 1e9;
}

std::uint64_t KernelProfile::pmu_total(PmuEvent e) const {
  std::uint64_t s = 0;
  for (int p = 0; p < kPhaseCount; ++p) {
    s += phase_pmu[p][static_cast<int>(e)];
  }
  return s;
}

namespace {
double safe_ratio(std::uint64_t num, std::uint64_t den, double scale = 1.0) {
  return den > 0 ? scale * static_cast<double>(num) / static_cast<double>(den)
                 : 0.0;
}
}  // namespace

double KernelProfile::phase_ipc(Phase p) const {
  return safe_ratio(pmu(p, PmuEvent::kInstructions), pmu(p, PmuEvent::kCycles));
}

double KernelProfile::ipc() const {
  return safe_ratio(pmu_total(PmuEvent::kInstructions),
                    pmu_total(PmuEvent::kCycles));
}

double KernelProfile::phase_mpki(Phase p, PmuEvent miss_event) const {
  return safe_ratio(pmu(p, miss_event), pmu(p, PmuEvent::kInstructions),
                    1000.0);
}

double KernelProfile::mpki(PmuEvent miss_event) const {
  return safe_ratio(pmu_total(miss_event), pmu_total(PmuEvent::kInstructions),
                    1000.0);
}

double KernelProfile::phase_bytes_per_cycle(Phase p) const {
  return safe_ratio(pmu(p, PmuEvent::kLlcMisses) * 64,
                    pmu(p, PmuEvent::kCycles));
}

void KernelProfile::merge(const KernelProfile& other) {
  if (invocations == 0) {
    // Adopt the first real invocation's metadata wholesale, then restore the
    // accumulated measurements below.
    const KernelProfile self = *this;
    *this = other;
    wall_seconds = self.wall_seconds;
    flops = self.flops;
    std::memcpy(phase_seconds, self.phase_seconds, sizeof(phase_seconds));
    std::memcpy(phase_thread_seconds, self.phase_thread_seconds,
                sizeof(phase_thread_seconds));
    std::memcpy(counters, self.counters, sizeof(counters));
    std::memcpy(phase_pmu, self.phase_pmu, sizeof(phase_pmu));
    invocations = self.invocations;
  }
  wall_seconds += other.wall_seconds;
  flops += other.flops;
  for (int i = 0; i < kPhaseCount; ++i) {
    phase_seconds[i] += other.phase_seconds[i];
    phase_thread_seconds[i] += other.phase_thread_seconds[i];
  }
  for (int i = 0; i < kCounterCount; ++i) counters[i] += other.counters[i];
  for (int p = 0; p < kPhaseCount; ++p) {
    for (int e = 0; e < kPmuEventCount; ++e) {
      phase_pmu[p][e] += other.phase_pmu[p][e];
    }
  }
  counters_enabled = counters_enabled || other.counters_enabled;
  pmu_enabled = pmu_enabled || other.pmu_enabled;
  invocations += other.invocations;
}

std::string KernelProfile::to_json() const {
  using metrics::append_fmt;
  using ull = unsigned long long;
  std::string j;
  j.reserve(2048);
  append_fmt(j,
             "{\"algorithm\":\"%s\",\"precision\":\"%s\",\"m\":%d,\"n\":%d,"
             "\"d\":%d,\"k\":%d,\"threads\":%d,\"variant\":%d,\"simd\":\"%s\"",
             algorithm, precision, m, n, d, k, threads, variant,
             simd_level_name(simd_level));
  append_fmt(j,
             ",\"blocking\":{\"mr\":%d,\"nr\":%d,\"dc\":%d,\"mc\":%d,"
             "\"nc\":%d},\"workspace\":{\"bytes\":%llu,\"cap\":%llu,"
             "\"retiles\":%d},\"invocations\":%llu,\"wall_seconds\":%.9g,"
             "\"flops\":%.9g",
             blocking.mr, blocking.nr, blocking.dc, blocking.mc, blocking.nc,
             static_cast<ull>(workspace_bytes), static_cast<ull>(workspace_cap),
             workspace_retiles, static_cast<ull>(invocations), wall_seconds,
             flops);
  const auto per_phase = [&](const char* key, const double* v) {
    append_fmt(j, ",\"%s\":{", key);
    for (int i = 0; i < kPhaseCount; ++i) {
      append_fmt(j, "%s\"%s\":%.9g", i > 0 ? "," : "", kPhaseNames[i], v[i]);
    }
    j += '}';
  };
  per_phase("phases", phase_seconds);
  append_fmt(j, ",\"phase_total\":%.9g,\"other_seconds\":%.9g", phase_total(),
             other_seconds());
  per_phase("phase_thread_seconds", phase_thread_seconds);
  append_fmt(j, ",\"counters_enabled\":%s,\"counters\":{",
             counters_enabled ? "true" : "false");
  for (int i = 0; i < kCounterCount; ++i) {
    append_fmt(j, "%s\"%s\":%llu", i > 0 ? "," : "", kCounterNames[i],
               static_cast<ull>(counters[i]));
  }
  append_fmt(j, "},\"pmu\":{\"enabled\":%s,\"phases\":{",
             pmu_enabled ? "true" : "false");
  for (int p = 0; p < kPhaseCount; ++p) {
    append_fmt(j, "%s\"%s\":{", p > 0 ? "," : "", kPhaseNames[p]);
    for (int e = 0; e < kPmuEventCount; ++e) {
      append_fmt(j, "%s\"%s\":%llu", e > 0 ? "," : "",
                 pmu_event_name(static_cast<PmuEvent>(e)),
                 static_cast<ull>(phase_pmu[p][e]));
    }
    j += '}';
  }
  append_fmt(j,
             "}},\"derived\":{\"gflops\":%.9g,\"model_gflops\":%.9g,"
             "\"peak_gflops\":%.9g,\"peak_gbs\":%.9g,"
             "\"selection_fraction\":%.9g,\"pack_gbs\":%.9g,\"ipc\":%.9g,"
             "\"l1_mpki\":%.9g,\"llc_mpki\":%.9g}}",
             gflops(), model_gflops, peak_gflops, peak_gbs,
             selection_fraction(), pack_bandwidth_gbs(), ipc(),
             mpki(PmuEvent::kL1dMisses), mpki(PmuEvent::kLlcMisses));
  return j;
}

std::string KernelProfile::format_table() const {
  using metrics::append_fmt;
  using ull = unsigned long long;
  std::string out;
  out.reserve(1024);
  append_fmt(out,
             "profile: %s %s m=%d n=%d d=%d k=%d threads=%d variant=%d "
             "simd=%s blocking=(%d,%d,%d,%d,%d) invocations=%llu\n",
             algorithm, precision, m, n, d, k, threads, variant,
             simd_level_name(simd_level), blocking.mr, blocking.nr,
             blocking.dc, blocking.mc, blocking.nc,
             static_cast<ull>(invocations));
  if (pmu_enabled) {
    append_fmt(out, "  %-14s %12s %8s %14s %6s %8s %8s %6s\n", "phase",
               "seconds", "% wall", "thread-secs", "ipc", "l1-mpki",
               "llc-mpki", "B/cyc");
  } else {
    append_fmt(out, "  %-14s %12s %8s %14s\n", "phase", "seconds", "% wall",
               "thread-secs");
  }
  const double wall = wall_seconds > 0.0 ? wall_seconds : 1.0;
  for (int i = 0; i < kPhaseCount; ++i) {
    if (phase_seconds[i] == 0.0 && phase_thread_seconds[i] == 0.0) continue;
    append_fmt(out, "  %-14s %12.6f %7.1f%% %14.6f", kPhaseLabels[i],
               phase_seconds[i], 100.0 * phase_seconds[i] / wall,
               phase_thread_seconds[i]);
    if (pmu_enabled) {
      const auto ph = static_cast<Phase>(i);
      append_fmt(out, " %6.2f %8.2f %8.2f %6.2f", phase_ipc(ph),
                 phase_mpki(ph, PmuEvent::kL1dMisses),
                 phase_mpki(ph, PmuEvent::kLlcMisses),
                 phase_bytes_per_cycle(ph));
    }
    out += '\n';
  }
  append_fmt(out, "  %-14s %12.6f %7.1f%%\n", "(other)", other_seconds(),
             100.0 * other_seconds() / wall);
  append_fmt(out, "  %-14s %12.6f %7.1f%%\n", "total (wall)", wall_seconds,
             100.0);
  append_fmt(out, "  gflops=%.2f model_gflops=%.2f selection=%.1f%%\n",
             gflops(), model_gflops, 100.0 * selection_fraction());
  if (counters_enabled) {
    append_fmt(out,
               "  candidates=%llu heap_pushes=%llu root_rejects=%llu "
               "tiles=%llu\n",
               static_cast<ull>(counter(Counter::kCandidates)),
               static_cast<ull>(counter(Counter::kHeapPushes)),
               static_cast<ull>(counter(Counter::kRootRejects)),
               static_cast<ull>(counter(Counter::kTiles)));
    append_fmt(out, "  packed_q=%llu B packed_r=%llu B pack_bw=%.2f GB/s\n",
               static_cast<ull>(counter(Counter::kBytesPackedQ)),
               static_cast<ull>(counter(Counter::kBytesPackedR)),
               pack_bandwidth_gbs());
  }
  return out;
}

void PhaseSpan::open(Phase p, int a, int b) {
  Reading now;
  if (slot_ != nullptr) now.wall = std::chrono::steady_clock::now();
  if (pmu_) now.pmu_ok = PmuGroup::this_thread().read(now.pmu);
  if (trace_ != nullptr) now.ticks = trace_now();
  if (phase_ != Phase::kNumPhases) {
    if (trace_ != nullptr) {
      trace_->record(phase_, start_.ticks, now.ticks, a_, b_);
    }
    if (slot_ != nullptr) {
      const int i = static_cast<int>(phase_);
      slot_->phase[i] +=
          std::chrono::duration<double>(now.wall - start_.wall).count();
      if (start_.pmu_ok && now.pmu_ok) {
        const PmuCounts delta = now.pmu.delta_since(start_.pmu);
        for (int e = 0; e < kPmuEventCount; ++e) slot_->pmu[i][e] += delta.v[e];
      }
    }
  }
  if (p == Phase::kNumPhases) {
    slot_ = nullptr;
    trace_ = nullptr;
    return;
  }
  phase_ = p;
  a_ = a;
  b_ = b;
  start_ = now;
}

Recorder::Recorder(KernelProfile* sink, int threads, TraceSink* trace)
    : sink_(sink), trace_(trace), threads_(threads < 1 ? 1 : threads) {
  if (sink_ != nullptr) {
    slots_ = new ThreadCounters[static_cast<std::size_t>(threads_)]();
    pmu_ = pmu_available();
    t0_ = std::chrono::steady_clock::now();
  }
}

Recorder::~Recorder() { delete[] slots_; }

void Recorder::absorb(int tid, const KernelProfile& worker) {
  if (sink_ == nullptr) return;
  ThreadCounters& s = slots_[tid];
  for (int p = 0; p < kPhaseCount; ++p) {
    s.phase[p] += worker.phase_seconds[p];
    for (int e = 0; e < kPmuEventCount; ++e) {
      s.pmu[p][e] += worker.phase_pmu[p][e];
    }
  }
  for (int c = 0; c < kCounterCount; ++c) s.counter[c] += worker.counters[c];
  sink_->counters_enabled = sink_->counters_enabled || worker.counters_enabled;
}

double Recorder::phase_seconds(Phase p) const {
  double mx = 0.0;
  for (int t = 0; sink_ != nullptr && t < threads_; ++t) {
    mx = std::max(mx, slots_[t].phase[static_cast<int>(p)]);
  }
  return mx;
}

double Recorder::wall_seconds() const {
  if (sink_ == nullptr) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

void Recorder::aggregate(double wall_seconds) {
  if (sink_ == nullptr) return;
  for (int p = 0; p < kPhaseCount; ++p) {
    double sum = 0.0;
    for (int t = 0; t < threads_; ++t) sum += slots_[t].phase[p];
    sink_->phase_seconds[p] += phase_seconds(static_cast<Phase>(p));
    sink_->phase_thread_seconds[p] += sum;
  }
  for (int c = 0; c < kCounterCount; ++c) {
    std::uint64_t sum = 0;
    for (int t = 0; t < threads_; ++t) sum += slots_[t].counter[c];
    sink_->counters[c] += sum;
  }
  // PMU counts are extensive quantities (work done), so per-phase totals
  // sum across threads; IPC and miss rates derived from the sums are the
  // whole-phase aggregates.
  for (int p = 0; p < kPhaseCount; ++p) {
    for (int e = 0; e < kPmuEventCount; ++e) {
      std::uint64_t sum = 0;
      for (int t = 0; t < threads_; ++t) sum += slots_[t].pmu[p][e];
      sink_->phase_pmu[p][e] += sum;
    }
  }
  sink_->pmu_enabled = sink_->pmu_enabled || pmu_;
  sink_->wall_seconds += wall_seconds;
  sink_->invocations += 1;
}

}  // namespace gsknn::telemetry
