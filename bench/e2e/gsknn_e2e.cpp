// gsknn_e2e — runs one workload of the end-to-end benchmark (README.md).
//
//   gsknn_e2e --workload W [--seed S] [--seconds T] [--trace 0|1]
//             [--smoke] [--trace-dir DIR]
//
// The workload is set up five times from nothing (the median is setup_s),
// run untimed for a warm-up, measured for T seconds with tracing off, and
// every output it produced is checked. Between stretches of measured work a
// fixed calibration loop is timed, and every gated time is reported at the
// reference speed of that loop (calibrate.hpp); the serving workloads keep
// all their threads on the CPU the loop runs on. With --trace 1 the
// measurement is split into an untraced and a traced half, and per-layer
// probes time the layers' public entry points on the workload's own data;
// the spans go to DIR/trace-W.json. One JSON object goes to stdout; run.py
// picks the metrics BENCHMARK.json names.
//
// Only public headers are used: everything here times calls into the
// library from outside, so the library carries no benchmark code.
#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <functional>
#include <numeric>
#include <queue>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gsknn/common/arch.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/core/packed_refs.hpp"
#include "gsknn/data/generators.hpp"
#include "gsknn/model/perf_model.hpp"
#include "gsknn/serving/server.hpp"
#include "gsknn/tree/rkd_forest.hpp"
#include "calibrate.hpp"
#include "support.hpp"

#ifndef GSKNN_GIT_DESCRIBE
#define GSKNN_GIT_DESCRIBE "unknown"
#endif

using namespace gsknn;
using namespace e2e;

namespace {

/// Threads of every timed kernel call and all-NN solve. On a shared
/// virtual host, threads that wait at a barrier measure how soon the host
/// runs the other virtual CPUs: one 4-thread call of join-compute's shape
/// took 74 ms back to back and 309 ms between one-thread calls, while the
/// one-thread call held within 5% beside a memory or compute hog on the
/// other CPUs. Four threads are timed only by the core.parallel_eff probe.
constexpr int kThreads = 1;
constexpr int kProbeThreads = 4;
constexpr int kServeWorkers = 2;
constexpr int kSetupReps = 5;
/// Before timing, the workload runs this long untimed: on shared virtual
/// hosts several threads that start computing together (the serving
/// workloads, the 4-thread probe) get about one CPU for the first second
/// before the host grants them the rest.
constexpr double kWarmUpS = 1.5;
constexpr double kSmokeWarmUpS = 0.05;
/// Floor on allnn recall@16 (256 sampled queries). Seeds 1-20 measure
/// 0.881-0.899 at the full size; the floor catches a broken solver, not a
/// seed's luck.
constexpr double kRecallFloor = 0.85;
constexpr double kSmokeRecallFloor = 0.4;  // 2 trees of 256-point leaves

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_dir = ".";
};

std::vector<int> id_range(int begin, int count) {
  std::vector<int> v(static_cast<std::size_t>(count));
  std::iota(v.begin(), v.end(), begin);
  return v;
}

KnnConfig threads(int t) {
  KnnConfig cfg;
  cfg.threads = t;
  return cfg;
}

serving::ServerOptions serve_options() {
  serving::ServerOptions so;
  so.workers = kServeWorkers;
  so.kernel_threads = 1;
  return so;
}

/// Bitwise identity of two result tables, heap layout included.
bool same_table(const NeighborTable& a, const NeighborTable& b) {
  if (a.rows() != b.rows() || a.k() != b.k() ||
      a.row_stride() != b.row_stride()) {
    return false;
  }
  if (a.rows() == 0) return true;
  const std::size_t n = static_cast<std::size_t>(a.rows()) * a.row_stride();
  return std::memcmp(a.row_dists(0), b.row_dists(0), n * sizeof(double)) == 0 &&
         std::memcmp(a.row_ids(0), b.row_ids(0), n * sizeof(int)) == 0;
}

std::uint64_t next_request_id() {
  static std::uint64_t next = 0;
  return ++next;
}

void layer(Report& rep, const char* name, double v, const char* unit) {
  rep.layer.push_back({name, v, unit});
}

/// What one measured pass of a workload produced. Calibration loops
/// (calibrate.hpp) are timed between stretches of the work, one before the
/// first stretch and one after the last. Times are kept as measured and at
/// the reference speed, scaled by the mean of the two calibrations around
/// their stretch: the host's speed drifts within seconds, and the two
/// together follow it more closely than the one before.
///
/// The reported statistics are taken over all units of work or, with
/// by_stretch, as the median over the stretches of each stretch's own
/// statistic, so that a stretch whose calibrations missed a change of speed
/// weighs no more than any other. Over 8 seeds of the serving workloads
/// that cut the spread of p50 from 6-7% to about 4%.
struct Measured {
  std::vector<double> lat_ms;  ///< one unit of the workload's work each
  std::vector<double> cal_ms;  ///< the calibration loops, in order
  std::vector<Metric> diag;
  bool by_stretch = false;

  void calibrate(Tracer& tr, int parent) {
    Scope s(tr, "calibration", parent);
    cal_ms.push_back(calibration_ms());
    busy_s_.push_back(0.0);
  }
  /// One unit of work of `ms`, done since the last calibration.
  void add(double ms) {
    lat_ms.push_back(ms);
    stretch_.push_back(cal_ms.size() - 1);
  }
  /// `s` seconds since the last calibration in which the work kept the
  /// program busy: units of work over busy seconds is the capacity.
  void busy(double s) { busy_s_.back() += s; }

  /// Quantile q of the units' times at the reference speed.
  double norm_quantile(double q) const {
    if (!by_stretch) {
      std::vector<double> all;
      for (std::size_t i = 0; i < lat_ms.size(); ++i) {
        all.push_back(lat_ms[i] * speed(stretch_[i]));
      }
      return quantile(all, q);
    }
    std::vector<double> per;
    for (const std::vector<double>& s : stretches()) {
      if (s.size() >= kMinStretchUnits) per.push_back(quantile(s, q));
    }
    return median(per);
  }
  /// Units of work per second at the reference speed.
  double norm_capacity() const {
    const std::vector<std::vector<double>> st = stretches();
    if (!by_stretch) {
      double s = 0.0;
      for (std::size_t i = 0; i < st.size(); ++i) s += busy_s_[i] * speed(i);
      return static_cast<double>(lat_ms.size()) / s;
    }
    std::vector<double> per;
    for (std::size_t i = 0; i < st.size(); ++i) {
      if (st[i].size() >= kMinStretchUnits && busy_s_[i] > 0) {
        per.push_back(static_cast<double>(st[i].size()) /
                      (busy_s_[i] * speed(i)));
      }
    }
    return median(per);
  }
  /// Units of work per second as measured.
  double capacity() const {
    return static_cast<double>(lat_ms.size()) / sum(busy_s_);
  }

 private:
  static constexpr std::size_t kMinStretchUnits = 20;

  /// The factor that turns wall time after calibration i into time at the
  /// reference speed.
  double speed(std::size_t i) const {
    const double cal =
        i + 1 < cal_ms.size() ? 0.5 * (cal_ms[i] + cal_ms[i + 1]) : cal_ms[i];
    return kReferenceMs / cal;
  }
  /// The units' times at the reference speed, by stretch.
  std::vector<std::vector<double>> stretches() const {
    std::vector<std::vector<double>> out(cal_ms.size());
    for (std::size_t i = 0; i < lat_ms.size(); ++i) {
      out[stretch_[i]].push_back(lat_ms[i] * speed(stretch_[i]));
    }
    return out;
  }

  std::vector<std::size_t> stretch_;  ///< the stretch of each unit
  std::vector<double> busy_s_;        ///< per stretch
};

/// Holds the calling thread, and every thread it starts while held, on the
/// CPU it runs on now. Threads started while held stay there.
class OneCpu {
 public:
  OneCpu() {
    held_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    cpu_ = sched_getcpu();
    if (!held_ || cpu_ < 0) {
      held_ = false;
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    held_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~OneCpu() { release(); }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

  /// Moves the calling thread to its former CPUs but the held one, when it
  /// had others.
  void leave() {
    if (!held_) return;
    cpu_set_t rest = saved_;
    CPU_CLR(cpu_, &rest);
    if (CPU_COUNT(&rest) > 0) sched_setaffinity(0, sizeof(rest), &rest);
  }
  /// Gives the calling thread back all its former CPUs.
  void release() {
    if (held_) sched_setaffinity(0, sizeof(saved_), &saved_);
    held_ = false;
  }

 private:
  cpu_set_t saved_{};
  int cpu_ = -1;
  bool held_ = false;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the workload's state from nothing (timed as setup_s).
  virtual void setup(std::uint64_t seed) = 0;
  /// Untimed: the reference answers later checks compare against.
  virtual void prepare_checks() {}
  virtual Measured measure(double seconds, Tracer& tr, int parent) = 0;
  /// Untimed: run the workload until the host has ramped up; outputs are
  /// still checked.
  virtual void warm_up(double seconds) {
    Tracer off;
    measure(seconds, off, 0);
  }
  /// Checks run once, after the measurement.
  virtual void final_checks(Report& /*rep*/) {}
  /// Per-layer metrics on the workload's own data (traced runs).
  virtual void probes(Report& rep, Tracer& tr, int parent) = 0;
  /// Quantile reported as norm_latency_ms_tail: p90 where it repeats from
  /// run to run, else p75. Either keeps at least ten samples beyond it in a
  /// full run on a calm host (in each stretch, for the serving workloads).
  virtual double tail_q() const = 0;

  Checks checks;
  int probe_reps = 5;
  int solo_tickets = 200;
  double warm_up_s = kWarmUpS;
};

// ---- per-layer probes ------------------------------------------------------

/// One timed call in ms at the reference speed (calibrate.hpp), scaled by
/// the mean of calibration loops timed just before and just after it, as
/// the measured work is: then the core times add up to the measured call
/// in a slow hour too. prep() runs untimed before it. Each call is one span.
template <typename Prep, typename Call>
double time_ms(Tracer& tr, int parent, const char* name, Prep&& prep,
               Call&& call) {
  prep();
  const double before = calibration_ms();
  double ms = 0.0;
  {
    Scope s(tr, name, parent);
    const auto t0 = Clock::now();
    call();
    ms = ms_between(t0, Clock::now());
  }
  return ms * kReferenceMs / (0.5 * (before + calibration_ms()));
}

/// Median ms of `reps` timed calls.
template <typename Prep, typename Call>
double probe_ms(Tracer& tr, int parent, const char* name, int reps,
                Prep&& prep, Call&& call) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(time_ms(tr, parent, name, prep, call));
  return median(t);
}

/// core.*, model.* and ref.* on one kernel call of the workload's shape.
/// Time splits the paper's way (Table 5, T(k) - T(1)): pack_r = cold - warm,
/// micro = warm at k = 1, select = warm(k) - warm(1); the three add up to
/// the cold call by construction. Cold, warm and warm(k = 1) calls take
/// turns, so the host's drift over seconds does not land in a difference;
/// before them the cold call runs untimed for warm_up_s, as the workload
/// did before its measurement. Returns the cold call in ms.
double core_probe(Workload& w, const PointTable& X, std::span<const int> q,
                  std::span<const int> r, int k, double warm_up_s,
                  Report& rep, Tracer& tr, int parent) {
  const int m = static_cast<int>(q.size());
  const int n = static_cast<int>(r.size());
  const int d = X.dim();
  const int reps = w.probe_reps;
  const int slow_reps = std::max(1, reps / 2);
  const KnnConfig seq = threads(kThreads);
  const KnnConfig wide = threads(kProbeThreads);
  NeighborTable nn(m, k), nn1(m, 1), one(1, k), sixteen(16, k);

  for (const auto t0 = Clock::now(); seconds_since(t0) < warm_up_s;) {
    nn.reset();
    knn_kernel(X, q, r, nn, seq);
  }
  PackedRefs refs;
  PackedRefs::Options popt;
  popt.eager = true;
  Status built = Status::kOk;
  const double build = probe_ms(tr, parent, "PackedRefs::build", reps, [] {},
                                [&] { built = refs.build(X, r, popt); });
  w.checks.expect(built == Status::kOk, "PackedRefs::build failed");
  std::vector<double> colds, warms, warm1s;
  for (int i = 0; i < reps; ++i) {
    colds.push_back(time_ms(tr, parent, "knn_kernel cold", [&] { nn.reset(); },
                            [&] { knn_kernel(X, q, r, nn, seq); }));
    warms.push_back(time_ms(tr, parent, "knn_kernel warm", [&] { nn.reset(); },
                            [&] { knn_kernel(refs, q, nn, seq); }));
    warm1s.push_back(time_ms(tr, parent, "knn_kernel warm k=1",
                             [&] { nn1.reset(); },
                             [&] { knn_kernel(refs, q, nn1, seq); }));
  }
  const double cold = median(colds);
  const double warm = median(warms);
  const double warm1 = median(warm1s);
  // Four threads get about one CPU until the host has run them for a while.
  for (const auto t0 = Clock::now(); seconds_since(t0) < warm_up_s;) {
    nn.reset();
    knn_kernel(X, q, r, nn, wide);
  }
  const double parallel = probe_ms(tr, parent, "knn_kernel cold threads=4",
                                   reps, [&] { nn.reset(); },
                                   [&] { knn_kernel(X, q, r, nn, wide); });
  const double gemm = probe_ms(tr, parent, "knn_gemm_baseline", slow_reps,
                               [&] { nn.reset(); },
                               [&] { knn_gemm_baseline(X, q, r, nn, seq); });
  const double q1 = probe_ms(tr, parent, "knn_kernel warm q=1", reps * 4,
                             [&] { one.reset(); },
                             [&] { knn_kernel(refs, q.first(1), one, seq); });
  const double q16 =
      probe_ms(tr, parent, "knn_kernel warm q=16", reps * 2,
               [&] { sixteen.reset(); },
               [&] { knn_kernel(refs, q.first(16), sixteen, seq); }) /
      16.0;

  const Variant v = resolve_variant(m, n, d, k, seq);
  const double predicted_s = model::predicted_time(
      v == Variant::kVar1 ? model::Method::kVar1 : model::Method::kVar6,
      model::ProblemShape{m, n, d, k}, model::MachineParams{},
      default_blocking(cpu_features().best_level()));
  const double select = warm - warm1;
  const double flops = (2.0 * d + 3.0) * m * static_cast<double>(n);

  layer(rep, "core.pack_r_ms", cold - warm, "ms");
  layer(rep, "core.micro_ms", warm1, "ms");
  layer(rep, "core.select_ms", select, "ms");
  layer(rep, "core.select_frac", select / cold, "1");
  layer(rep, "core.micro_gflops", flops / (warm1 * 1e-3) / 1e9, "GF/s");
  layer(rep, "core.parallel_eff", cold / (kProbeThreads * parallel), "1");
  layer(rep, "core.warm_q1_ms", q1, "ms");
  layer(rep, "core.warm_q16_ms_per_q", q16, "ms");
  layer(rep, "core.pack_r_gbs",
        static_cast<double>(refs.stats().resident_bytes) / (build * 1e-3) /
            1e9,
        "GB/s");
  layer(rep, "model.abs_drift_log2",
        std::fabs(std::log2(cold * 1e-3 / predicted_s)), "log2");
  layer(rep, "ref.gemm_ms", gemm, "ms");
  layer(rep, "ref.speedup", gemm / cold, "1");
  rep.diag.push_back({"core.cold_ms", cold, "ms"});
  rep.diag.push_back({"core.variant", static_cast<double>(v), "id"});
  return cold;
}

/// serving.*: closed-loop single tickets (one outstanding), each paired
/// with a warm one-thread kernel call for the same query over the same
/// references, then bursts of 64 back-to-back tickets for the fusion ratio.
/// dispatch_ms is the median of ticket minus kernel over the pairs: what
/// admission, fusion and completion add to the kernel. Times are as
/// measured: each pair runs back to back, so host drift mostly cancels in
/// the difference. Returns the solo ticket's median in ms.
double serving_probe(Workload& w, const PointTable& X, serving::Server& srv,
                   std::string_view set, std::span<const int> ref_ids,
                   std::span<const int> queries, int k, Report& rep,
                   Tracer& tr, int parent) {
  const auto ticket = [&](int q) {
    const serving::TicketId t = srv.submit(set, q, k);
    const bool ok = t != 0 && srv.wait(t) == Status::kOk;
    w.checks.expect(ok, "probe ticket failed");
  };
  ticket(queries[0]);  // touches every block, so the timed tickets run warm
  PackedRefs refs;
  PackedRefs::Options popt;
  popt.eager = true;
  w.checks.expect(refs.build(X, ref_ids, popt) == Status::kOk,
                  "PackedRefs::build failed");
  NeighborTable one(1, k);
  std::vector<double> solo, submit_us, dispatch;
  for (int i = 0; i < w.solo_tickets; ++i) {
    const int q = queries[static_cast<std::size_t>(i) % queries.size()];
    one.reset();
    double kernel = 0.0;
    {
      Scope s(tr, "knn_kernel warm q=1", parent);
      const auto k0 = Clock::now();
      knn_kernel(refs, std::span<const int>(&q, 1), one, threads(1));
      kernel = ms_between(k0, Clock::now());
    }
    const std::uint64_t req = next_request_id();
    const auto t0 = Clock::now();
    serving::TicketId t = 0;
    {
      Scope s(tr, "Server::submit", parent, req);
      t = srv.submit(set, q, k);
    }
    const auto t1 = Clock::now();
    const bool ok = t != 0 && srv.wait(t) == Status::kOk;
    const auto t2 = Clock::now();
    tr.add("ticket solo", t0, t2, parent, req);
    w.checks.expect(ok, "solo ticket failed");
    solo.push_back(ms_between(t0, t2));
    submit_us.push_back(ms_between(t0, t1) * 1e3);
    dispatch.push_back(solo.back() - kernel);
  }
  const serving::Server::Stats before = srv.stats();
  const int bursts = std::max(1, w.probe_reps);
  for (int b = 0; b < bursts; ++b) {
    Scope s(tr, "burst of 64", parent);
    std::vector<serving::TicketId> ts;
    for (int i = 0; i < 64; ++i) {
      ts.push_back(srv.submit(
          set, queries[static_cast<std::size_t>(b * 64 + i) % queries.size()],
          k));
    }
    for (serving::TicketId t : ts) {
      w.checks.expect(t != 0 && srv.wait(t) == Status::kOk,
                      "burst ticket failed");
    }
  }
  const serving::Server::Stats after = srv.stats();
  const double calls =
      static_cast<double>(after.fused_calls - before.fused_calls);
  const double fused =
      static_cast<double>(after.fused_queries - before.fused_queries);

  layer(rep, "serving.solo_ms_p50", median(solo), "ms");
  layer(rep, "serving.dispatch_ms", median(dispatch), "ms");
  layer(rep, "serving.submit_us_p50", median(submit_us), "us");
  layer(rep, "serving.submit_us_p90", quantile(submit_us, 0.9), "us");
  layer(rep, "serving.fusion_ratio", calls > 0 ? fused / calls : 0.0, "1");
  return median(solo);
}

/// tree.*: all-NN solves of the randomized KD-tree forest.
void tree_probe(Workload& w, const PointTable& X, int k,
                const tree::RkdConfig& cfg, Report& rep, Tracer& tr,
                int parent) {
  std::vector<double> build, kernel, other;
  int leaves = 1;
  for (int i = 0; i < std::max(1, w.probe_reps / 2); ++i) {
    Scope s(tr, "all_nearest_neighbors", parent);
    const auto t0 = Clock::now();
    const tree::AllNnResult res = tree::all_nearest_neighbors(X, k, cfg);
    const double wall = seconds_since(t0);
    w.checks.expect(res.status == Status::kOk, "probe solve failed");
    build.push_back(res.build_seconds);
    kernel.push_back(res.kernel_seconds);
    other.push_back(wall - res.build_seconds - res.kernel_seconds);
    leaves = std::max(1, res.leaves_processed);
  }
  // Leaf sizes are internal to the solver; the mean leaf stands in for them.
  const double leaf_m =
      static_cast<double>(X.size()) * cfg.num_trees / leaves;
  const double flops = leaves * (2.0 * X.dim() + 3.0) * leaf_m * leaf_m;
  layer(rep, "tree.build_s", median(build), "s");
  layer(rep, "tree.kernel_s", median(kernel), "s");
  layer(rep, "tree.other_s", median(other), "s");
  layer(rep, "tree.leaf_gflops", flops / median(kernel) / 1e9, "GF/s");
}

tree::RkdConfig forest(int leaf, int trees, std::uint64_t seed) {
  tree::RkdConfig cfg;
  cfg.leaf_size = leaf;
  cfg.num_trees = trees;
  cfg.seed = seed;
  cfg.kernel.threads = kThreads;
  return cfg;
}

// ---- join-compute / join-select --------------------------------------------

/// Cold knn_kernel over m queries and n distinct references, one thread,
/// variant chosen by the library (kAuto).
class Join final : public Workload {
 public:
  Join(int d, int k, int m, int n) : d_(d), k_(k), m_(m), n_(n) {}

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    X_ = make_uniform(d_, m_ + n_, seed);
    q_ = id_range(0, m_);
    r_ = id_range(m_, n_);
    first_.resize(m_, k_);
    nn_.resize(m_, k_);
    checks.expect(knn_kernel_status(X_, q_, r_, first_, threads(kThreads)) ==
                      Status::kOk,
                  "first call failed");
  }

  Measured measure(double seconds, Tracer& tr, int parent) override {
    Measured out;
    const auto start = Clock::now();
    while (out.lat_ms.empty() || seconds_since(start) < seconds) {
      out.calibrate(tr, parent);
      nn_.reset();
      Status st = Status::kInternal;
      {
        Scope call(tr, "call", parent);
        Scope layer_call(tr, "knn_kernel", call.id());
        const auto t0 = Clock::now();
        st = knn_kernel_status(X_, q_, r_, nn_, threads(kThreads));
        const double ms = ms_between(t0, Clock::now());
        out.add(ms);
        out.busy(ms * 1e-3);
      }
      checks.expect(st == Status::kOk && same_table(nn_, first_),
                    "call differs from the first call");
    }
    out.calibrate(tr, parent);
    if (!tr.on()) untraced_p50_ms_ = out.norm_quantile(0.5);
    return out;
  }

  void final_checks(Report& /*rep*/) override {
    PackedRefs refs;
    checks.expect(refs.build(X_, r_) == Status::kOk, "PackedRefs::build failed");
    nn_.reset();
    const Status st = knn_kernel_status(refs, q_, nn_, threads(kThreads));
    checks.expect(st == Status::kOk && same_table(nn_, first_),
                  "warm PackedRefs call differs from the cold call");

    // 64 sampled rows against the scalar single-loop baseline: same ids,
    // distances within 1e-9 relative (the two sum in different orders).
    std::vector<int> rows = id_range(0, m_);
    std::mt19937_64 rng(seed_);
    std::shuffle(rows.begin(), rows.end(), rng);
    rows.resize(std::min<std::size_t>(64, rows.size()));
    std::vector<int> qs;
    for (int i : rows) qs.push_back(q_[static_cast<std::size_t>(i)]);
    NeighborTable ref(static_cast<int>(qs.size()), k_);
    knn_single_loop_baseline(X_, qs, r_, ref, threads(1));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      checks.expect(rows_match(first_.sorted_row(rows[i]),
                               ref.sorted_row(static_cast<int>(i))),
                    "row " + std::to_string(rows[i]) +
                        " differs from the single-loop baseline");
    }
  }

  void probes(Report& rep, Tracer& tr, int parent) override {
    {
      serving::Server srv(X_, serve_options());
      checks.expect(srv.create_refs("probe", r_) == Status::kOk,
                    "create_refs failed");
      serving_probe(*this, X_, srv, "probe", r_, q_, k_, rep, tr, parent);
    }
    const double cold =
        core_probe(*this, X_, q_, r_, k_, warm_up_s, rep, tr, parent);
    // pack_r + micro + select is the cold call; how far it sits from the
    // untraced norm_latency_ms_p50.
    rep.diag.push_back({"core.sum_vs_p50_pct",
                        100.0 * (cold / untraced_p50_ms_ - 1.0), "%"});
    tree_probe(*this, X_, k_, forest(std::min(1024, m_), 1, seed_), rep, tr,
               parent);
  }

  double tail_q() const override { return 0.75; }

 private:
  static bool rows_match(std::vector<std::pair<double, int>> a,
                         std::vector<std::pair<double, int>> b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double scale = std::max(std::fabs(a[i].first), 1e-300);
      if (std::fabs(a[i].first - b[i].first) > 1e-9 * scale) return false;
    }
    auto ids = [](std::vector<std::pair<double, int>>& v) {
      std::vector<int> out;
      for (const auto& p : v) out.push_back(p.second);
      std::sort(out.begin(), out.end());
      return out;
    };
    return ids(a) == ids(b);
  }

  int d_, k_, m_, n_;
  double untraced_p50_ms_ = 0.0;
  std::uint64_t seed_ = 0;
  PointTable X_;
  std::vector<int> q_, r_;
  NeighborTable first_, nn_;
};

// ---- serve-read / serve-churn ----------------------------------------------

/// A Server over a warm set of references, k = 16, driven by one client
/// thread that both issues and polls tickets (no budgets).
///   serve-read:  a closed loop of 32 callers.
///   serve-churn: the closed loop while one update every 200 ms swaps 32
///                resident references for 32 spares.
/// Traced runs of serve-read also measure, as diagnostics, open-loop Poisson
/// arrivals at 150/s and 300/s, half interactive and half bulk, and the
/// p90 <= 10 ms rate ladder.
///
/// The client and the server's threads share one CPU, the one the
/// calibration loop runs on. On a shared virtual host each CPU's speed
/// changes within seconds and differs from the others' by up to a third, so
/// threads spread over several CPUs follow no single calibration.
class Serve final : public Workload {
 public:
  static constexpr int kD = 64;
  static constexpr int kK = 16;
  /// Callers in the closed loop. Two workers then fuse about 9 tickets a
  /// call.
  static constexpr int kClosedDepth = 32;
  static constexpr double kThinkS = 0.005;
  static constexpr double kCalibrateEveryS = 0.5;
  /// A ticket whose fused call overlaps an update goes stale and is
  /// retried; one that goes stale on every retry the server allows fails
  /// kStale. Two workers on one CPU take about 25 ms a fused call: at 20
  /// updates a second a third to a half of the tickets went stale and a few
  /// in ten thousand failed.
  static constexpr double kUpdatesPerS = 5.0;

  Serve(bool churn, bool smoke)
      : churn_(churn),
        refs_(smoke ? 4096 : 32768),
        spares_(refs_ / 8),
        pool_n_(smoke ? 256 : 1024),
        open_loop_s_(smoke ? 0.1 : 2.0),
        pick_(0, pool_n_ - 1) {}

  void setup(std::uint64_t seed) override {
    rng_.seed(seed);
    X_ = make_uniform(kD, refs_ + spares_ + pool_n_, seed);
    resident_ = id_range(0, refs_);
    spare_ = id_range(refs_, spares_);
    pool_ = id_range(refs_ + spares_, pool_n_);
    srv_ = std::make_unique<serving::Server>(X_, serve_options());
    checks.expect(srv_->create_refs("main", resident_) == Status::kOk,
                  "create_refs failed");
    const serving::TicketId t = srv_->submit("main", pool_[0], kK);
    checks.expect(t != 0 && srv_->wait(t) == Status::kOk, "prime ticket failed");
  }

  void prepare_checks() override {
    bytes_after_setup_ = srv_->refs_stats("main")->bytes_packed;
    if (churn_) return;
    // The cold synchronous kernel is the oracle: every served result must
    // match its row bitwise.
    NeighborTable nn(pool_n_, kK);
    knn_kernel(X_, pool_, resident_, nn, threads(kThreads));
    for (int i = 0; i < pool_n_; ++i) {
      for (const auto& [dist, id] : nn.sorted_row(i)) {
        oracle_d_.push_back(dist);
        oracle_ids_.push_back(id);
      }
    }
  }

  void warm_up(double seconds) override {
    Tracer off;
    closed_loop(seconds, 0.0, off, 0);
  }

  Measured measure(double seconds, Tracer& tr, int parent) override {
    const serving::Server::Stats st0 = srv_->stats();
    const std::uint64_t bytes0 = srv_->refs_stats("main")->bytes_packed;
    Closed c;
    {
      Scope s(tr, churn_ ? "closed loop + updates" : "closed loop", parent);
      c = closed_loop(seconds, churn_ ? kUpdatesPerS : 0.0, tr, s.id());
    }
    Measured out = c.reads;
    const serving::Server::Stats st1 = srv_->stats();
    out.diag.push_back({"serving.fusion_ratio.closed", fusion(st0, st1), "1"});
    if (churn_) {
      const double requeues = static_cast<double>(st1.requeues - st0.requeues);
      const std::vector<double>& upd = c.update_ms;
      out.diag.push_back({"serving.update_ms_p50", median(upd), "ms"});
      out.diag.push_back({"serving.update_ms_p90", quantile(upd, 0.9), "ms"});
      out.diag.push_back({"serving.requeues", requeues, "count"});
      out.diag.push_back(
          {"serving.stale_frac",
           requeues / static_cast<double>(std::max<std::uint64_t>(
                          1, st1.fused_queries - st0.fused_queries)),
           "1"});
      out.diag.push_back(
          {"core.repack_mb_s",
           static_cast<double>(srv_->refs_stats("main")->bytes_packed -
                               bytes0) /
               seconds / 1e6,
           "MB/s"});
    }
    return out;
  }

  void final_checks(Report& /*rep*/) override {
    if (churn_) {
      checks.expect(srv_->refs_size("main") == refs_,
                    "reference set changed size");
      return;
    }
    const std::uint64_t moved =
        srv_->refs_stats("main")->bytes_packed - bytes_after_setup_;
    checks.expect(moved == 0, "warm serving moved " + std::to_string(moved) +
                                  " packed bytes after setup");
  }

  void probes(Report& rep, Tracer& tr, int parent) override {
    const std::vector<int> initial = id_range(0, refs_);
    const std::span<const int> fused(pool_.data(), 64);
    // The serving probes' client runs beside the workers' CPU, so that it
    // neither waits for a worker to yield the CPU (submit times grew from
    // 7 us to 0.8 ms, and the open-loop generator ran 6 ms late) nor delays
    // one. The kernel probes' 4 threads get every CPU.
    one_cpu_.leave();
    const double solo = serving_probe(*this, X_, *srv_, "main", resident_,
                                      pool_, kK, rep, tr, parent);
    if (!churn_) open_loops(solo, rep.diag, tr, parent);
    one_cpu_.release();
    core_probe(*this, X_, fused, initial, kK, warm_up_s, rep, tr, parent);
    tree_probe(*this, X_, kK, forest(1024, 1, 7), rep, tr, parent);
  }

  /// Under churn p90 falls among the tickets retried after going stale, and
  /// their share moves from run to run.
  double tail_q() const override { return churn_ ? 0.75 : 0.9; }

 private:
  struct Loop {
    std::vector<double> lat_ms, late_ms, submit_us;
    std::uint64_t shed = 0;
    std::size_t backlog = 0;  ///< tickets outstanding at the last arrival
    bool aborted = false;
  };
  struct Closed {
    Measured reads;  ///< tickets; capacity is completions per second
    std::vector<double> update_ms;  ///< each update's erase + insert
  };
  struct Pending {
    serving::TicketId ticket;
    int query;  ///< index into pool_
    Clock::time_point due, submit0, submit1;
    std::uint64_t req;
    bool cancelled;
  };

  static double fusion(const serving::Server::Stats& a,
                       const serving::Server::Stats& b) {
    const double calls = static_cast<double>(b.fused_calls - a.fused_calls);
    return calls > 0 ? static_cast<double>(b.fused_queries - a.fused_queries) /
                           calls
                     : 0.0;
  }

  static void describe(std::vector<Metric>& diag, const std::string& tag,
                       const Loop& l) {
    diag.push_back({"serving.p50_ms." + tag, median(l.lat_ms), "ms"});
    diag.push_back({"serving.p90_ms." + tag, quantile(l.lat_ms, 0.9), "ms"});
    diag.push_back({"serving.p99_ms." + tag, quantile(l.lat_ms, 0.99), "ms"});
    diag.push_back({"serving.submit_us_p50." + tag, median(l.submit_us), "us"});
    diag.push_back(
        {"serving.gen_late_ms_p99." + tag, quantile(l.late_ms, 0.99), "ms"});
    diag.push_back(
        {"serving.tickets." + tag, static_cast<double>(l.lat_ms.size()), "count"});
  }

  static Clock::time_point after(Clock::time_point t, double seconds) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
  }

  /// Diagnostics: open-loop arrivals at 150/s and 300/s, then the ladder.
  /// The workers serve about 600 tickets a second on their one CPU, so the
  /// rates are a quarter and a half of that. `solo_ms` is the solo ticket's
  /// median, for the queueing share at 300/s.
  void open_loops(double solo_ms, std::vector<Metric>& diag, Tracer& tr,
                  int parent) {
    Loop a, b;
    {
      Scope s(tr, "r150", parent);
      a = open_loop(150, open_loop_s_, false, tr, s.id());
    }
    const serving::Server::Stats st1 = srv_->stats();
    {
      Scope s(tr, "r300", parent);
      b = open_loop(300, open_loop_s_, false, tr, s.id());
    }
    const serving::Server::Stats st2 = srv_->stats();
    describe(diag, "r150", a);
    describe(diag, "r300", b);
    diag.push_back({"serving.queue_ms_p50.r300", median(b.lat_ms) - solo_ms,
                    "ms"});
    diag.push_back({"serving.fusion_ratio.r300", fusion(st1, st2), "1"});
    diag.push_back({"serving.max_rate_qps",
                    ladder(1.5 * open_loop_s_, diag, tr, parent), "1/s"});
  }

  /// Open-loop Poisson arrivals at `rate`/s for `seconds`, issued and polled
  /// from this thread. Latency runs from a ticket's due time to the poll
  /// that saw it done, so a late generator or a stalled client counts
  /// against it. On a ladder step sheds and backlog are the step's failure
  /// signal; anywhere else every refused or non-kOk ticket is a failed
  /// operation.
  Loop open_loop(double rate, double seconds, bool ladder, Tracer& tr,
                 int parent) {
    Loop out;
    std::exponential_distribution<double> gap(rate);
    const auto end = after(Clock::now(), seconds);
    Clock::time_point next = after(Clock::now(), gap(rng_));
    std::vector<Pending> pending;
    bool issuing = true;
    Clock::time_point drain_deadline{};

    while (issuing || !pending.empty()) {
      if (issuing) {
        for (const auto now = Clock::now(); next <= now && next < end;
             next = after(next, gap(rng_))) {
          submit(next, ladder, pending, out, tr);
        }
        // A ladder step whose backlog passes 100 ms of arrivals has failed;
        // stop feeding it.
        out.aborted =
            ladder && static_cast<double>(pending.size()) > rate * 0.1;
        if (next >= end || out.aborted) {
          issuing = false;
          out.backlog = pending.size();
          drain_deadline = after(Clock::now(), 5.0);
          if (ladder && (out.aborted ||
                         static_cast<double>(out.backlog) >= rate * 0.01)) {
            cancel_all(pending);
          }
        }
      } else if (Clock::now() > drain_deadline) {
        cancel_all(pending);
      }
      for (std::size_t i = 0; i < pending.size();) {
        Status st = Status::kOk;
        if (!pending[i].cancelled && !srv_->poll(pending[i].ticket, &st)) {
          ++i;
          continue;
        }
        finish(pending[i], st, Clock::now(), ladder, out, tr, parent);
        pending[i] = pending.back();
        pending.pop_back();
      }
      if (issuing && pending.empty()) {
        std::this_thread::sleep_until(next);
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    return out;
  }

  void submit(Clock::time_point due, bool ladder, std::vector<Pending>& pending,
              Loop& out, Tracer& tr) {
    const int qi = pick_(rng_);
    serving::SubmitOptions so;
    so.lane = coin_(rng_) ? serving::Lane::kBulk : serving::Lane::kInteractive;
    Status err = Status::kOk;
    const auto t0 = Clock::now();
    const serving::TicketId t =
        srv_->submit("main", pool_[static_cast<std::size_t>(qi)], kK, so, &err);
    const auto t1 = Clock::now();
    out.late_ms.push_back(ms_between(due, t0));
    out.submit_us.push_back(ms_between(t0, t1) * 1e3);
    if (t == 0) {
      ++out.shed;
      if (!ladder) {
        checks.expect(false, std::string("shed at a fixed rate: ") +
                                 status_name(err));
      }
      return;
    }
    pending.push_back({t, qi, due, t0, t1, tr.on() ? next_request_id() : 0,
                       false});
  }

  void cancel_all(std::vector<Pending>& pending) {
    for (Pending& p : pending) {
      if (!p.cancelled) p.cancelled = srv_->cancel(p.ticket);
    }
  }

  void finish(const Pending& p, Status st, Clock::time_point done, bool ladder,
              Loop& out, Tracer& tr, int parent) {
    if (p.cancelled) {
      // Cancelled by this client. On a ladder step that already failed it
      // counts at the time it had waited, a lower bound on its latency;
      // elsewhere it was still queued 5 s after the last arrival.
      if (ladder) {
        out.lat_ms.push_back(ms_between(p.due, done));
      } else {
        checks.expect(false, "ticket not done 5 s after arrivals");
      }
      return;
    }
    if (st == Status::kOk) out.lat_ms.push_back(ms_between(p.due, done));
    const auto r0 = Clock::now();
    check_ticket(p.ticket, p.query, st);
    const auto r1 = Clock::now();
    if (st == Status::kOk && tr.on()) {
      const int span = tr.add("ticket", p.due, done, parent, p.req);
      tr.add("Server::submit", p.submit0, p.submit1, span, p.req);
      tr.add("Server::result", r0, r1, span, p.req);
    }
  }

  /// kClosedDepth interactive callers, each waiting for its ticket and then
  /// thinking for an exponential time (mean kThinkS) before the next: the
  /// server never idles, and the think times keep the callers from marching
  /// in lockstep with the fused batches (in lockstep, latency moves in whole
  /// batch rounds). The completion rate is the throughput ceiling; latency
  /// runs from submit to the poll that saw the ticket done. With
  /// updates_per_s > 0 the same thread applies one update at each fixed step
  /// of the schedule.
  Closed closed_loop(double seconds, double updates_per_s, Tracer& tr,
                     int parent) {
    struct Live {
      serving::TicketId ticket;
      int query;
      Clock::time_point submitted;
      std::uint64_t req;
    };
    Closed out;
    std::vector<Live> live;
    // When each idle caller submits next, soonest first.
    std::priority_queue<Clock::time_point, std::vector<Clock::time_point>,
                        std::greater<>>
        ready;
    std::exponential_distribution<double> think(1.0 / kThinkS);
    out.reads.by_stretch = true;
    out.reads.calibrate(tr, parent);
    const auto start = Clock::now();
    for (int i = 0; i < kClosedDepth; ++i) ready.push(start);
    const double period = updates_per_s > 0 ? 1.0 / updates_per_s : 0.0;
    Clock::time_point next_update =
        period > 0 ? after(start, period) : Clock::time_point::max();
    auto settle = [&](bool timed) {
      for (std::size_t i = 0; i < live.size();) {
        Status st = Status::kOk;
        if (!srv_->poll(live[i].ticket, &st)) {
          ++i;
          continue;
        }
        const auto done = Clock::now();
        if (timed) out.reads.add(ms_between(live[i].submitted, done));
        tr.add("ticket", live[i].submitted, done, parent, live[i].req);
        check_ticket(live[i].ticket, live[i].query, st);
        ready.push(after(done, think(rng_)));
        live[i] = live.back();
        live.pop_back();
      }
    };
    Clock::time_point segment = start;  // serving since the last calibration
    Clock::time_point next_cal = after(start, kCalibrateEveryS);
    while (seconds_since(start) < seconds) {
      // Every kCalibrateEveryS the callers hold off until the server is
      // idle, and the calibration loop runs alone.
      const bool draining = Clock::now() >= next_cal;
      if (draining && live.empty()) {
        out.reads.busy(seconds_since(segment));
        out.reads.calibrate(tr, parent);
        segment = Clock::now();
        next_cal = after(segment, kCalibrateEveryS);
        continue;
      }
      for (const auto now = Clock::now();
           !draining && !ready.empty() && ready.top() <= now; ready.pop()) {
        const int qi = pick_(rng_);
        const serving::TicketId t =
            srv_->submit("main", pool_[static_cast<std::size_t>(qi)], kK);
        if (t == 0) {
          checks.expect(false, "refused with a bounded number outstanding");
          continue;
        }
        live.push_back({t, qi, Clock::now(), tr.on() ? next_request_id() : 0});
      }
      if (Clock::now() >= next_update) {
        out.update_ms.push_back(update(tr, parent));
        next_update = after(next_update, period);
      }
      settle(true);
      // Sleep: a spinning client would take the CPU from the workers.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    out.reads.busy(seconds_since(segment));
    for (const Live& l : live) srv_->wait(l.ticket);
    settle(false);
    out.reads.calibrate(tr, parent);
    return out;
  }

  /// A terminal ticket of pool query `qi` must be kOk with a result that
  /// passes result_ok.
  void check_ticket(serving::TicketId t, int qi, Status st) {
    if (st != Status::kOk) {
      checks.expect(false, std::string("ticket ended ") + status_name(st));
      return;
    }
    std::array<int, kK> ids{};
    std::array<double, kK> dists{};
    const int n = srv_->result(t, ids, dists);
    checks.expect(result_ok(qi, n, ids, dists), "ticket result fails its check");
  }

  bool result_ok(int qi, int n, const std::array<int, kK>& ids,
                 const std::array<double, kK>& dists) const {
    if (n != kK) return false;
    if (!churn_) {
      const std::size_t at = static_cast<std::size_t>(qi) * kK;
      return std::memcmp(ids.data(), &oracle_ids_[at], sizeof(ids)) == 0 &&
             std::memcmp(dists.data(), &oracle_d_[at], sizeof(dists)) == 0;
    }
    // Under churn the reference set moves, so check the form: k ascending
    // finite distances over distinct ids that are references, not queries.
    std::array<int, kK> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < kK; ++i) {
      if (!std::isfinite(dists[i]) || (i > 0 && dists[i] < dists[i - 1])) {
        return false;
      }
      if (sorted[i] < 0 || sorted[i] >= refs_ + spares_ ||
          (i > 0 && sorted[i] == sorted[i - 1])) {
        return false;
      }
    }
    return true;
  }

  /// Erase 32 random resident ids and insert 32 random spares, so the set
  /// keeps its size. Returns the time of the two calls in ms.
  double update(Tracer& tr, int parent) {
    constexpr int kBatch = 32;
    auto draw = [&](std::vector<int>& from) {
      for (int j = 0; j < kBatch; ++j) {
        const std::size_t last = from.size() - 1 - j;
        std::uniform_int_distribution<std::size_t> at(0, last);
        std::swap(from[at(rng_)], from[last]);
      }
      return std::vector<int>(from.end() - kBatch, from.end());
    };
    const std::vector<int> gone = draw(resident_);
    const std::vector<int> added = draw(spare_);
    Scope s(tr, "update", parent);
    const auto t0 = Clock::now();
    Status se = Status::kInternal, si = Status::kInternal;
    {
      Scope c(tr, "Server::erase_refs", s.id());
      se = srv_->erase_refs("main", gone);
    }
    {
      Scope c(tr, "Server::insert_refs", s.id());
      si = srv_->insert_refs("main", added);
    }
    const double ms = ms_between(t0, Clock::now());
    checks.expect(se == Status::kOk && si == Status::kOk, "update failed");
    std::copy(added.begin(), added.end(), resident_.end() - kBatch);
    std::copy(gone.begin(), gone.end(), spare_.end() - kBatch);
    return ms;
  }

  /// Highest arrival rate served within the limit: p90 <= 10 ms, no sheds,
  /// and fewer than rate x 10 ms tickets outstanding at the last arrival.
  /// Rates rise 25% a step from 150/s until two steps in a row fail; the
  /// p90 = 10 ms crossing is then interpolated (log p90 against log rate)
  /// between the last step that passed and the step after it, so one
  /// unlucky step near the knee does not move the answer by whole steps.
  double ladder(double budget_s, std::vector<Metric>& diag, Tracer& tr,
                int parent) {
    constexpr double kGrowth = 1.25;
    constexpr double kLimitMs = 10.0;
    // About eight steps reach two failures past a ~400/s knee.
    const double step_s = budget_s / 8.0;
    std::vector<double> rates, p90s;
    int last_pass = -1;
    for (double rate = 150.0; rate < 1e6; rate *= kGrowth) {
      Scope s(tr, "ladder step", parent);
      const Loop l = open_loop(rate, step_s, true, tr, s.id());
      const double p90 = quantile(l.lat_ms, 0.9);
      const bool pass = !l.aborted && l.shed == 0 &&
                        static_cast<double>(l.backlog) < rate * 0.01 &&
                        p90 <= kLimitMs;
      const std::string tag =
          "serving.ladder." + std::to_string(static_cast<int>(rate));
      diag.push_back({tag + ".pass", pass ? 1.0 : 0.0, "1"});
      diag.push_back({tag + ".shed", static_cast<double>(l.shed), "count"});
      diag.push_back({tag + ".p90_ms", p90, "ms"});
      rates.push_back(rate);
      p90s.push_back(p90);
      if (pass) last_pass = static_cast<int>(rates.size()) - 1;
      if (static_cast<int>(rates.size()) - last_pass > 2) break;
    }
    if (last_pass < 0) return rates[0] * std::min(1.0, kLimitMs / p90s[0]);
    const std::size_t i = static_cast<std::size_t>(last_pass);
    if (i + 1 == rates.size() || !(p90s[i + 1] > kLimitMs)) return rates[i];
    const double t = std::log(kLimitMs / p90s[i]) / std::log(p90s[i + 1] / p90s[i]);
    return rates[i] * std::pow(kGrowth, std::clamp(t, 0.0, 1.0));
  }

  OneCpu one_cpu_;  // held from before srv_ starts to after it stops
  bool churn_;
  int refs_, spares_, pool_n_;
  double open_loop_s_;
  std::mt19937_64 rng_;
  std::uniform_int_distribution<int> pick_;
  std::bernoulli_distribution coin_{0.5};
  PointTable X_;  // outlives srv_ (declared first, destroyed last)
  std::vector<int> resident_, spare_, pool_;
  std::unique_ptr<serving::Server> srv_;
  std::uint64_t bytes_after_setup_ = 0;
  std::vector<int> oracle_ids_;
  std::vector<double> oracle_d_;
};

// ---- allnn -----------------------------------------------------------------

/// The paper's Table 1 application: randomized-KD-tree all-NN over
/// Gaussian samples of intrinsic dimension 10 embedded in d = 64.
class AllNn final : public Workload {
 public:
  static constexpr int kK = 16;

  explicit AllNn(bool smoke)
      : n_(smoke ? 4096 : 16384),
        leaf_(smoke ? 256 : 1024),
        trees_(smoke ? 2 : 4),
        recall_floor_(smoke ? kSmokeRecallFloor : kRecallFloor) {}

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    X_ = make_gaussian_embedded(64, n_, 10, seed);
    cfg_ = forest(leaf_, trees_, seed);
    first_ = tree::all_nearest_neighbors(X_, kK, cfg_);
    checks.expect(first_.status == Status::kOk, "first solve failed");
  }

  Measured measure(double seconds, Tracer& tr, int parent) override {
    Measured out;
    const auto start = Clock::now();
    while (out.lat_ms.empty() || seconds_since(start) < seconds) {
      out.calibrate(tr, parent);
      Scope solve(tr, "solve", parent);
      Scope call(tr, "all_nearest_neighbors", solve.id());
      const auto t0 = Clock::now();
      const tree::AllNnResult res = tree::all_nearest_neighbors(X_, kK, cfg_);
      const double ms = ms_between(t0, Clock::now());
      out.add(ms);
      out.busy(ms * 1e-3);
      checks.expect(res.status == Status::kOk &&
                        same_table(res.table, first_.table),
                    "solve differs from the first solve");
    }
    out.calibrate(tr, parent);
    return out;
  }

  void final_checks(Report& rep) override {
    const double recall = tree::recall_at_k(X_, first_.table, kK, 256, seed_);
    rep.diag.push_back({"tree.recall", recall, "1"});
    checks.expect(recall >= recall_floor_,
                  "recall " + std::to_string(recall) + " below the floor");
  }

  void probes(Report& rep, Tracer& tr, int parent) override {
    const std::vector<int> leaf = id_range(0, leaf_);
    {
      const std::vector<int> all = id_range(0, n_);
      serving::Server srv(X_, serve_options());
      checks.expect(srv.create_refs("probe", all) == Status::kOk,
                    "create_refs failed");
      serving_probe(*this, X_, srv, "probe", all, leaf, kK, rep, tr, parent);
    }
    core_probe(*this, X_, leaf, leaf, kK, warm_up_s, rep, tr, parent);
    tree_probe(*this, X_, kK, cfg_, rep, tr, parent);
  }

  double tail_q() const override { return 0.75; }

 private:
  int n_, leaf_, trees_;
  double recall_floor_;
  std::uint64_t seed_ = 0;
  PointTable X_;
  tree::RkdConfig cfg_;
  tree::AllNnResult first_;
};

std::unique_ptr<Workload> make_workload(const Options& o) {
  const int n = o.smoke ? 1024 : 4096;
  std::unique_ptr<Workload> w;
  if (o.workload == "join-compute") {
    w = std::make_unique<Join>(512, 16, n, n);
  } else if (o.workload == "join-select") {
    w = std::make_unique<Join>(64, 512, n / 2, n);
  } else if (o.workload == "serve-read") {
    w = std::make_unique<Serve>(false, o.smoke);
  } else if (o.workload == "serve-churn") {
    w = std::make_unique<Serve>(true, o.smoke);
  } else if (o.workload == "allnn") {
    w = std::make_unique<AllNn>(o.smoke);
  } else {
    return nullptr;
  }
  if (o.smoke) {
    w->probe_reps = 1;
    w->solo_tickets = 10;
    w->warm_up_s = kSmokeWarmUpS;
  }
  return w;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

std::string provenance(const Options& o) {
  const SimdLevel lvl = cpu_features().best_level();
  const char* simd = lvl == SimdLevel::kAvx512 ? "avx512"
                     : lvl == SimdLevel::kAvx2 ? "avx2"
                                               : "scalar";
#ifdef __VERSION__
  const std::string compiler = __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"git\":" + json_str(GSKNN_GIT_DESCRIBE) +
         ",\"compiler\":" + json_str(compiler) + ",\"simd\":" +
         json_str(simd) + ",\"cpu\":" + json_str(cpu_model()) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"threads\":" + std::to_string(kThreads) +
         ",\"seed\":" + std::to_string(o.seed) + "}";
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) != "0";
    } else if (a == "--trace-dir" && has_value) {
      o.trace_dir = argv[++i];
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0;
}

int run(const Options& o) {
  std::unique_ptr<Workload> w;
  Measured setup;  // in seconds
  Tracer off;
  for (int i = 0; i < kSetupReps; ++i) {
    w.reset();
    w = make_workload(o);
    setup.calibrate(off, 0);
    const auto t0 = Clock::now();
    w->setup(o.seed);
    setup.add(seconds_since(t0));
  }
  setup.calibrate(off, 0);
  w->prepare_checks();
  w->warm_up(w->warm_up_s);

  Report rep;
  Tracer tr;
  const double measure_s = o.trace ? 0.5 * o.seconds : o.seconds;
  const Measured m = w->measure(measure_s, tr, 0);
  if (o.trace) {
    tr.enable();
    Measured traced;
    {
      Scope root(tr, o.workload.c_str());
      {
        Scope step(tr, "measure", root.id());
        traced = w->measure(measure_s, tr, step.id());
      }
      w->final_checks(rep);
      Scope step(tr, "probes", root.id());
      w->probes(rep, tr, step.id());
    }
    layer(rep, "bench.trace_overhead_pct",
          100.0 * (traced.norm_quantile(0.5) / m.norm_quantile(0.5) - 1.0),
          "%");
    const std::string path = o.trace_dir + "/trace-" + o.workload + ".json";
    if (!tr.write_chrome(path)) {
      std::fprintf(stderr, "gsknn_e2e: cannot write %s\n", path.c_str());
      return 1;
    }
  } else {
    w->final_checks(rep);
  }

  // Gated metrics are at the reference speed (calibrate.hpp); the wall-clock
  // values are diagnostics.
  const double q = w->tail_q();
  rep.e2e.push_back({"setup_s", setup.norm_quantile(0.5), "s"});
  rep.e2e.push_back({"norm_latency_ms_p50", m.norm_quantile(0.5), "ms"});
  rep.e2e.push_back({"norm_latency_ms_tail", m.norm_quantile(q), "ms"});
  rep.e2e.push_back({"norm_capacity_per_s", m.norm_capacity(), "1/s"});
  rep.diag.push_back({"wall.setup_s", median(setup.lat_ms), "s"});
  rep.diag.push_back({"wall.latency_ms_p50", median(m.lat_ms), "ms"});
  rep.diag.push_back({"wall.latency_ms_tail", quantile(m.lat_ms, q), "ms"});
  rep.diag.push_back({"wall.capacity_per_s", m.capacity(), "1/s"});
  rep.diag.push_back({"bench.calibration_ms", median(m.cal_ms), "ms"});
  rep.diag.insert(rep.diag.end(), m.diag.begin(), m.diag.end());
  rep.diag.push_back({"bench.samples", static_cast<double>(m.lat_ms.size()),
                      "count"});
  rep.diag.push_back({"bench.tail_q", w->tail_q(), "1"});

  std::string notes = "[";
  for (std::size_t i = 0; i < w->checks.notes.size(); ++i) {
    notes += (i > 0 ? "," : "") + json_str(w->checks.notes[i]);
  }
  notes += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"smoke\":%s,\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"notes\":%s,\"provenance\":%s,\"metrics\":%s,\"layer\":%s,"
      "\"diagnostics\":%s}\n",
      json_str(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      json_num(o.seconds).c_str(), o.trace ? 1 : 0, o.smoke ? "true" : "false",
      w->checks.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(w->checks.attempted),
      static_cast<unsigned long long>(w->checks.failed), notes.c_str(),
      provenance(o).c_str(), json_metrics(rep.e2e).c_str(),
      json_metrics(rep.layer).c_str(), json_metrics(rep.diag).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    if (!parse(argc, argv, o) || !make_workload(o)) {
      std::fprintf(stderr,
                   "usage: gsknn_e2e --workload join-compute|join-select|"
                   "serve-read|serve-churn|allnn [--seed S] [--seconds T] "
                   "[--trace 0|1] [--smoke] [--trace-dir DIR]\n");
      return 2;
    }
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gsknn_e2e: %s\n", e.what());
    return 1;
  }
}
