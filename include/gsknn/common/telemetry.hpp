// Kernel telemetry: per-phase timers, work counters and structured profiles
// for every GSKNN entry point.
//
// The paper's argument is a time-attribution argument (Table 5's
// Tcoll/Tgemm/Tsq2d/Theap breakdown, Fig. 4's model-vs-measured curves), so
// the kernel exposes the same attribution at runtime. Attach a KernelProfile
// to KnnConfig::profile and every kernel invocation *accumulates* into it:
//
//   telemetry::KernelProfile prof;
//   KnnConfig cfg;
//   cfg.profile = &prof;
//   knn_kernel(X, q, r, result, cfg);
//   puts(prof.format_table().c_str());   // Table-5-style breakdown
//   puts(prof.to_json().c_str());        // one-line structured profile
//
// One build, one run-time gate: the phase timers and the work counters
// (candidates evaluated, heap pushes vs. root-rejects, tiles, bytes packed)
// record into the calling thread's ThreadCounters slot, and
// Recorder::slot() is null when no profile sink is attached. An unprofiled
// call therefore reads no clock and writes no slot: the fused kernel
// tallies a tile's heap pushes in its selection context, and the driver
// adds them to the slot once per tile when there is one.
// KernelProfile::counters_enabled says whether the producing algorithm
// counts (the fused driver does, the GEMM baseline does not).
//
// Aggregation model: drivers record into per-thread, cache-line-padded
// ThreadCounters slots (no sharing, no atomics). Recorder::aggregate() then
// reduces them: phase_seconds[] takes the MAX across threads (a critical-path
// estimate — for a balanced static schedule the per-thread busy time of a
// parallel phase is the phase's wall time), phase_thread_seconds[] the SUM
// (total CPU spent), and counters the SUM (they are exact work tallies).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "gsknn/common/arch.hpp"
#include "gsknn/common/pmu.hpp"

namespace gsknn::telemetry {

/// Phases of the kNN kernel time breakdown. The fused kernel uses the first
/// five; the Algorithm-2.1 GEMM baseline maps its Table-5 columns onto the
/// same axis (Tcoll -> kCollect, Tgemm -> kMicro, Tsq2d -> kSq2d,
/// Theap -> kSelect), so both algorithms report through one schema.
enum class Phase : int {
  kPackQ = 0,  ///< packing the Qc query panel (+ query norms)
  kPackR,      ///< packing the Rc reference panel (+ reference norms)
  kMicro,      ///< micro-kernel flops (baseline: the GEMM call)
  kSelect,     ///< neighbor selection (zero for Var#1 — fused into kMicro)
  kMerge,      ///< merging private per-thread tables (parallel_refs)
  kCollect,    ///< baseline Tcoll: gathering Q/R into dense matrices
  kSq2d,       ///< baseline Tsq2d: adding the squared-norm terms
  kNumPhases,
};

inline constexpr int kPhaseCount = static_cast<int>(Phase::kNumPhases);

/// Stable lowercase identifier ("pack_q", "micro", ...) used in JSON.
const char* phase_name(Phase p);

/// Work counters (exact tallies, kept while a profile sink is attached).
enum class Counter : int {
  kCandidates = 0,  ///< candidate (query, reference) pairs seen by selection
  kHeapPushes,      ///< candidates that entered a heap row (batched rows:
                    ///< filter survivors among the row's k smallest)
  kRootRejects,     ///< candidates rejected (heap-root test or dedup)
  kTiles,           ///< micro-kernel tile invocations
  kBytesPackedQ,    ///< bytes written into packed Qc panels (+ norms)
  kBytesPackedR,    ///< bytes written into packed Rc panels (+ norms)
  kNumCounters,
};

inline constexpr int kCounterCount = static_cast<int>(Counter::kNumCounters);

const char* counter_name(Counter c);

/// One thread's private accumulator slot. Padded to (at least) a cache line
/// so concurrently-recording threads never false-share.
struct alignas(64) ThreadCounters {
  double phase[kPhaseCount] = {};
  std::uint64_t counter[kCounterCount] = {};
  /// Per-phase hardware-counter deltas (cycles, instructions, misses, ...)
  /// recorded by this thread's PmuGroup; all zero when perf is unavailable.
  std::uint64_t pmu[kPhaseCount][kPmuEventCount] = {};

  void add(Counter c, std::uint64_t v) { counter[static_cast<int>(c)] += v; }
  void sub(Counter c, std::uint64_t v) { counter[static_cast<int>(c)] -= v; }
};

/// Aggregated profile of one or more kernel invocations. Kernels *accumulate*
/// (phases, counters, wall time, invocations) so a sink can span a whole
/// solver run (e.g. every leaf kernel of an RKD-forest iteration); metadata
/// (shape, variant, blocking, ...) reflects the most recent invocation.
struct KernelProfile {
  // ---- metadata (last invocation) ----------------------------------------
  const char* algorithm = "";  ///< "gsknn", "gemm_baseline", ...
  const char* precision = "";  ///< "f64" or "f32"
  int m = 0, n = 0, d = 0, k = 0;
  int threads = 1;       ///< threads the kernel resolved to
  int variant = 0;       ///< resolved selection variant (1/5; 0 = n/a)
  int simd_level = 0;    ///< static_cast<int>(SimdLevel) the dispatch chose
  BlockingParams blocking;
  /// Workspace governance of the last invocation (docs/ROBUSTNESS.md):
  /// planned footprint, the cap it honored (0 = uncapped) and how many
  /// degradation-ladder steps the planner took to fit under it.
  std::size_t workspace_bytes = 0;
  std::size_t workspace_cap = 0;
  int workspace_retiles = 0;
  double model_gflops = 0.0;  ///< perf_model prediction for this shape (0 = n/a)
  /// Machine peaks from the perf-model parameters (roofline axes for
  /// tools/roofline_report.py); 0 when the recording driver has no model.
  double peak_gflops = 0.0;  ///< compute roof: MachineParams::peak_flops/1e9
  double peak_gbs = 0.0;     ///< streaming roof: 8 bytes / tau_b / 1e9

  // ---- accumulated measurements ------------------------------------------
  double wall_seconds = 0.0;                    ///< end-to-end kernel wall time
  double flops = 0.0;  ///< useful flops, (2d+3)·m·n summed over invocations
  double phase_seconds[kPhaseCount] = {};       ///< critical-path per phase
  double phase_thread_seconds[kPhaseCount] = {};///< total CPU per phase
  std::uint64_t counters[kCounterCount] = {};
  /// True once an algorithm that counts (the fused driver, also under
  /// parallel_refs and knn_batch) has recorded into this profile; a profile
  /// fed only by the GEMM baseline reads false and its counters zero.
  bool counters_enabled = false;
  /// Per-phase hardware-counter totals (summed across threads) and whether
  /// any were actually collected. False whenever perf_event_open is denied
  /// (paranoid sysctl, seccomp, no PMU) or GSKNN_PMU=0 — the profile then
  /// degrades to timers + work counters with zero added overhead.
  std::uint64_t phase_pmu[kPhaseCount][kPmuEventCount] = {};
  bool pmu_enabled = false;
  std::uint64_t invocations = 0;

  // ---- accessors and derived metrics -------------------------------------
  double phase(Phase p) const { return phase_seconds[static_cast<int>(p)]; }
  std::uint64_t counter(Counter c) const {
    return counters[static_cast<int>(c)];
  }
  /// Sum of the attributed phase times (compare against wall_seconds; the
  /// difference is unattributed overhead: buffer setup, OpenMP fork/join).
  double phase_total() const;
  /// Unattributed wall time, clamped at zero.
  double other_seconds() const;
  /// Useful-flop rate the paper plots over every invocation: flops / wall.
  double gflops() const;
  /// Fraction of the wall spent selecting (Var#1 reports 0 — fused).
  double selection_fraction() const;
  /// Packing bandwidth in GB/s (0 when no counting algorithm recorded).
  double pack_bandwidth_gbs() const;

  // ---- PMU-derived metrics (all 0 when pmu_enabled is false) -------------
  std::uint64_t pmu(Phase p, PmuEvent e) const {
    return phase_pmu[static_cast<int>(p)][static_cast<int>(e)];
  }
  std::uint64_t pmu_total(PmuEvent e) const;
  /// Instructions retired per cycle, for one phase / over all phases.
  double phase_ipc(Phase p) const;
  double ipc() const;
  /// Misses per 1000 retired instructions (the usual MPKI normalization).
  double phase_mpki(Phase p, PmuEvent miss_event) const;
  double mpki(PmuEvent miss_event) const;
  /// LLC-miss traffic per cycle (64 B per missed line) — the memory-bound
  /// signal the roofline reporter plots against the bandwidth roof.
  double phase_bytes_per_cycle(Phase p) const;

  /// Accumulate another profile (sums measurements; adopts `other`'s
  /// metadata when this profile has not recorded an invocation yet).
  void merge(const KernelProfile& other);
  void reset() { *this = KernelProfile(); }

  /// One-line JSON object with every field above plus the derived metrics.
  std::string to_json() const;
  /// Human-readable Table-5-style breakdown (phases, % of wall, counters).
  std::string format_table() const;
};

class TraceSink;

/// One phase bracket: the single place a kernel layer measures a phase.
/// Each end reads only the clocks its sinks need (steady clock and PMU
/// group for a profile slot, the trace clock for a TraceSink) and close()
/// records the phase once into each. next() closes the phase and opens the
/// following one at the same reading. With no sink nothing is read; a span
/// that is never closed records nothing.
class PhaseSpan {
 public:
  PhaseSpan(ThreadCounters* slot, bool pmu, TraceSink* trace, Phase p,
            int a = -1, int b = -1)
      : slot_(slot), trace_(trace), pmu_(pmu && slot != nullptr) {
    if (on()) open(p, a, b);
  }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

  void next(Phase p, int a = -1, int b = -1) {
    if (on()) open(p, a, b);
  }
  void close() {
    if (on()) open(Phase::kNumPhases, -1, -1);
  }

 private:
  struct Reading {
    std::chrono::steady_clock::time_point wall;
    std::uint64_t ticks = 0;
    PmuCounts pmu;
    bool pmu_ok = false;
  };
  bool on() const { return slot_ != nullptr || trace_ != nullptr; }
  /// Read, record the open phase up to the reading, then open `p` from it
  /// (kNumPhases: close for good).
  void open(Phase p, int a, int b);

  ThreadCounters* slot_;
  TraceSink* trace_;
  bool pmu_;
  Phase phase_ = Phase::kNumPhases;  ///< the open phase; kNumPhases = none
  int a_ = -1, b_ = -1;
  Reading start_;
};

/// Per-call recording context: the thread slots, wall clock and trace sink
/// of one kernel-layer call. Inactive (null profile sink) recorders allocate
/// nothing and read no clock; their spans only trace, if a sink is given.
///
///   Recorder rec(cfg.profile, threads, cfg.trace);
///   PhaseSpan s = rec.span(tid, Phase::kPackQ, ic, pc);
///   ... pack ...  s.next(Phase::kMicro, ic, jc);  ... micro ...  s.close();
///   finish_profile(rec, call);  // src/core/profile.hpp
class Recorder {
 public:
  /// `sink == nullptr` produces an inactive recorder (no allocation).
  Recorder(KernelProfile* sink, int threads, TraceSink* trace = nullptr);
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool active() const { return sink_ != nullptr; }
  KernelProfile* sink() const { return sink_; }

  /// Thread tid's private slot (tid in [0, threads)); null when inactive.
  ThreadCounters* slot(int tid) { return active() ? &slots_[tid] : nullptr; }

  /// Open phase p on thread tid.
  PhaseSpan span(int tid, Phase p, int a = -1, int b = -1) {
    return PhaseSpan(slot(tid), pmu_, trace_, p, a, b);
  }

  /// Add a single-threaded worker kernel's profile to slot tid.
  void absorb(int tid, const KernelProfile& worker);
  /// Max across slots of phase p's seconds (the critical-path estimate).
  double phase_seconds(Phase p) const;
  /// Seconds since construction (0 when inactive).
  double wall_seconds() const;

  /// Reduce the slots into the sink (max-of-threads phase times, summed
  /// thread-seconds and counters) and add `wall_seconds` and one invocation.
  /// No-op when inactive.
  void aggregate(double wall_seconds);

 private:
  KernelProfile* sink_ = nullptr;
  TraceSink* trace_ = nullptr;
  ThreadCounters* slots_ = nullptr;
  int threads_ = 0;
  bool pmu_ = false;
  std::chrono::steady_clock::time_point t0_;
};

/// Name of a SimdLevel integer as stored in KernelProfile::simd_level.
const char* simd_level_name(int level);

}  // namespace gsknn::telemetry
