// gsknn — command-line front end for the library.
//
// Subcommands:
//   generate  --out FILE --d D --n N [--dist uniform|gaussian|mixture]
//             [--intrinsic I] [--clusters C] [--sigma S] [--seed S]
//             [--csv]                     synthesize a dataset
//   search    --data FILE --k K --out FILE [--queries FILE] [--norm l2|l1|
//             linf|cos|lp] [--p P] [--variant auto|1|5] [--threads N]
//             [--f32] [--pack-cache] [--repeat R] [--cache-budget B]
//             [--profile [FILE]] [--trace [FILE]] [--metrics [FILE]]
//             [--metrics-prom [FILE]]
//             exact kNN of every query (default: all points, self included)
//   batch     --data FILE --k K --out FILE [--tasks T] [--threads N]
//             [--pack-cache] [--cache-budget B]
//             [--metrics [FILE]] [--metrics-prom [FILE]]
//             split the all-pairs search into T independent tasks and run
//             them through the §2.5 batch scheduler (with --pack-cache: one
//             warm kernel call over every query, T is ignored)
//   allnn     --data FILE --k K --out FILE [--trees T] [--leaf L] [--seed S]
//             [--threads N] [--pack-cache] [--sweeps S] [--cache-budget B]
//             [--profile [FILE]] [--trace [FILE]] [--metrics [FILE]]
//             [--metrics-prom [FILE]]
//             approximate all-NN via the randomized KD-tree forest,
//             reporting sampled exact recall
//
// --pack-cache routes reference panels through a PackedRefs cache (see
// docs/ARCHITECTURE.md "plan / pack / compute"): the references are packed
// once, and repeat traffic (--repeat > 1 searches, --sweeps > 1 tree passes)
// runs warm — zero packed reference bytes, bitwise-identical results. A
// pack-stats line (hits / misses / bytes packed) is printed after the run;
// --cache-budget caps resident panel bytes (LRU eviction).
//
// Options take either `--key value` or `--key=value` form.
//
// --profile prints a Table-5-style phase breakdown (pack/micro/select/...) —
// with per-phase IPC and cache-miss columns when perf_event_open is usable —
// and writes the structured one-line JSON profile to FILE (default:
// <out>.profile.json), work counters included (candidates, heap pushes,
// root rejects, tiles, bytes packed). A profile from an algorithm that does
// not count (the GEMM baseline) says so instead of printing zeros.
//
// --trace records per-thread phase spans and writes a Chrome/Perfetto
// trace_event timeline to FILE (default: <out>.trace.json); open it in
// https://ui.perfetto.dev. Ring size via GSKNN_TRACE_RING_KB.
//
// --metrics / --metrics-prom snapshot the always-on aggregate registry
// (gsknn/common/metrics.hpp) after the command ran and write the JSON
// (default: <out>.metrics.json) or Prometheus text (<out>.metrics.prom)
// rendering; schema in docs/OBSERVABILITY.md.
//   info      --data FILE               print dataset statistics
//   doctor    [--out FILE]              run a tiny self-test and write a
//             one-shot diagnostics bundle (build/arch/env/metrics/flight-
//             recorder/model table) to FILE (default: gsknn_doctor.json);
//             schema validated by tools/check_diag.py
//
// Data files: native .gsknn tables or .csv (one point per row); detected by
// content, not extension. Results are CSV: query,rank,neighbor_id,distance.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <random>
#include <thread>
#include <stdexcept>
#include <string>
#include <vector>

#include "gsknn/common/arch.hpp"
#include "gsknn/common/fault.hpp"
#include "gsknn/common/flightrec.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/common/pmu.hpp"
#include "gsknn/common/timer.hpp"
#include "gsknn/common/trace.hpp"
#include "gsknn/core/diag.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/core/packed_refs.hpp"
#include "gsknn/data/generators.hpp"
#include "gsknn/data/io.hpp"
#include "gsknn/serving/server.hpp"
#include "gsknn/tree/rkd_forest.hpp"

namespace {

using namespace gsknn;

struct Args {
  std::vector<std::pair<std::string, std::string>> kv;
  bool has(const std::string& key) const {
    for (const auto& opt : kv) {
      if (opt.first == key) return true;
    }
    return false;
  }
  std::string get(const std::string& key, const std::string& fallback = "") const {
    for (const auto& opt : kv) {
      if (opt.first == key) return opt.second;
    }
    return fallback;
  }
  long get_long(const std::string& key, long fallback) const {
    const std::string v = get(key);
    return v.empty() ? fallback : std::stol(v);
  }
  double get_double(const std::string& key, double fallback) const {
    const std::string v = get(key);
    return v.empty() ? fallback : std::stod(v);
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::runtime_error("expected --option, got '" + key + "'");
    }
    key = key.substr(2);
    std::string value = "1";  // bare flags read as true
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);  // --key=value form
      key = key.substr(0, eq);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    a.kv.emplace_back(key, value);
  }
  return a;
}

/// Load a dataset, trying the native format first, then CSV.
PointTable load_any(const std::string& path) {
  try {
    return load_table(path);
  } catch (const std::exception&) {
    return load_csv(path);
  }
}

Norm parse_norm(const std::string& s) {
  if (s == "l2" || s.empty()) return Norm::kL2Sq;
  if (s == "l1") return Norm::kL1;
  if (s == "linf") return Norm::kLInf;
  if (s == "cos") return Norm::kCosine;
  if (s == "lp") return Norm::kLp;
  throw std::runtime_error("unknown norm '" + s + "'");
}

Variant parse_variant(const std::string& s) {
  if (s == "auto" || s.empty()) return Variant::kAuto;
  if (s == "1") return Variant::kVar1;
  if (s == "5") return Variant::kVar5;
  throw std::runtime_error("unknown variant '" + s + "' (auto/1/5)");
}

/// Resolve `--profile [path]` into the JSON output path: an explicit path
/// wins; the bare flag (parsed as "1") derives `<out>.profile.json`.
std::string profile_json_path(const Args& a, const std::string& out) {
  const std::string v = a.get("profile");
  if (v != "1") return v;
  return out + ".profile.json";
}

/// Same resolution for `--trace [path]` -> `<out>.trace.json`.
std::string trace_json_path(const Args& a, const std::string& out) {
  const std::string v = a.get("trace");
  if (v != "1") return v;
  return out + ".trace.json";
}

/// Warn-once (stderr) when the trace ring overflowed: dropped spans mean the
/// timeline silently under-reports work, which is easy to misread as idle
/// threads. The aggregate registry keeps the authoritative tally.
void warn_trace_drops(std::uint64_t dropped) {
  static bool warned = false;
  if (warned || dropped == 0) return;
  warned = true;
  std::fprintf(stderr,
               "gsknn: warning: trace ring overflow dropped %llu spans; the "
               "timeline is incomplete. Raise GSKNN_TRACE_RING_KB; see the "
               "trace_spans_dropped counter in --metrics output.\n",
               static_cast<unsigned long long>(dropped));
}

/// Warn-once (stderr) when any PMU read was multiplex-scaled: the scaled
/// columns are estimates, not exact counts.
void warn_pmu_multiplexing() {
  static bool warned = false;
  const std::uint64_t scaled = telemetry::pmu_multiplexed_reads();
  if (warned || scaled == 0) return;
  warned = true;
  std::fprintf(stderr,
               "gsknn: warning: %llu pmu reads were multiplex-scaled (more "
               "events than hardware counters); pmu columns are estimates. "
               "See the pmu_multiplexed_reads counter in --metrics output.\n",
               static_cast<unsigned long long>(scaled));
}

/// Print the Table-5-style breakdown and write the one-line JSON profile.
void emit_profile(const telemetry::KernelProfile& prof,
                  const std::string& json_path) {
  std::fputs(prof.format_table().c_str(), stdout);
  if (!prof.counters_enabled) {
    // Without this note, a baseline profile reads as "zero heap pushes"
    // instead of "not measured".
    std::fputs(
        "note: work counters not collected (the GEMM baseline does not "
        "count); counter fields read as zero\n",
        stdout);
  }
  if (!prof.pmu_enabled) {
    std::fputs(
        "note: hardware counters unavailable (perf_event_open denied or "
        "GSKNN_PMU=0); pmu fields read as zero\n",
        stdout);
  } else if (telemetry::pmu_multiplexed_reads() > 0) {
    // Scaled counts are estimates; say so instead of letting them read as
    // exact tallies.
    std::printf(
        "note: %llu pmu reads were multiplex-scaled (more events than "
        "hardware counters); pmu columns are estimates\n",
        static_cast<unsigned long long>(telemetry::pmu_multiplexed_reads()));
  }
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write profile json to " + json_path);
  }
  const std::string j = prof.to_json();
  std::fwrite(j.data(), 1, j.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("profile json -> %s\n", json_path.c_str());
  warn_pmu_multiplexing();
}

/// Write the Chrome trace_event timeline and report retention.
void emit_trace(const telemetry::TraceSink& trace,
                const std::string& json_path) {
  if (!trace.write_json(json_path.c_str())) {
    throw std::runtime_error("cannot write trace json to " + json_path);
  }
  std::printf("trace json -> %s (%llu spans, %d threads, %llu dropped)\n",
              json_path.c_str(),
              static_cast<unsigned long long>(trace.span_count()),
              trace.thread_tracks(),
              static_cast<unsigned long long>(trace.dropped_spans()));
  warn_trace_drops(trace.dropped_spans());
}

/// Write one rendering of the aggregate registry; shared by --metrics
/// (JSON) and --metrics-prom (Prometheus text).
void write_metrics_file(const std::string& body, const std::string& path,
                        const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error(std::string("cannot write ") + what + " to " +
                             path);
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("%s -> %s\n", what, path.c_str());
}

/// One-line pack-cache report for --pack-cache runs (stats() is cumulative
/// over the handle's lifetime, so warm repeats show up as hits with zero
/// new bytes packed).
template <typename T>
void print_pack_stats(const PackedRefsT<T>& refs) {
  const auto st = refs.stats();
  std::printf("pack cache: %llu hits, %llu misses, %llu evictions, "
              "%llu bytes packed, %zu resident\n",
              static_cast<unsigned long long>(st.hits),
              static_cast<unsigned long long>(st.misses),
              static_cast<unsigned long long>(st.evictions),
              static_cast<unsigned long long>(st.bytes_packed),
              st.resident_bytes);
}

/// Handle `--metrics [F]` / `--metrics-prom [F]`: snapshot the process-wide
/// aggregate registry once and write the requested renderings.
void emit_metrics(const Args& a, const std::string& out) {
  if (!a.has("metrics") && !a.has("metrics-prom")) return;
  const metrics::MetricsSnapshot snap = metrics::snapshot();
  if (a.has("metrics")) {
    const std::string v = a.get("metrics");
    write_metrics_file(snap.to_json(), v != "1" ? v : out + ".metrics.json",
                       "metrics json");
  }
  if (a.has("metrics-prom")) {
    const std::string v = a.get("metrics-prom");
    write_metrics_file(snap.to_prometheus(),
                       v != "1" ? v : out + ".metrics.prom",
                       "metrics prometheus");
  }
}

int cmd_generate(const Args& a) {
  const int d = static_cast<int>(a.get_long("d", 16));
  const int n = static_cast<int>(a.get_long("n", 10000));
  const auto seed = static_cast<std::uint64_t>(a.get_long("seed", 0));
  const std::string dist = a.get("dist", "uniform");
  PointTable t;
  if (dist == "uniform") {
    t = make_uniform(d, n, seed);
  } else if (dist == "gaussian") {
    const int intrinsic = static_cast<int>(a.get_long("intrinsic", std::min(10, d)));
    t = make_gaussian_embedded(d, n, intrinsic, seed);
  } else if (dist == "mixture") {
    t = make_gaussian_mixture(d, n, static_cast<int>(a.get_long("clusters", 16)),
                              a.get_double("sigma", 0.05), seed);
  } else {
    throw std::runtime_error("unknown --dist '" + dist + "'");
  }
  const std::string out = a.get("out");
  if (out.empty()) throw std::runtime_error("generate requires --out");
  if (a.has("csv")) {
    save_csv(t, out);
  } else {
    save_table(t, out);
  }
  std::printf("wrote %d points (d=%d, %s) to %s\n", n, d, dist.c_str(),
              out.c_str());
  return 0;
}

int cmd_search(const Args& a) {
  const PointTable data = load_any(a.get("data"));
  const int k = static_cast<int>(a.get_long("k", 10));
  KnnConfig cfg;
  cfg.norm = parse_norm(a.get("norm"));
  cfg.p = a.get_double("p", 3.0);
  cfg.variant = parse_variant(a.get("variant"));
  cfg.threads = static_cast<int>(a.get_long("threads", 0));
  telemetry::KernelProfile prof;
  if (a.has("profile")) cfg.profile = &prof;
  telemetry::TraceSink trace;
  if (a.has("trace")) cfg.trace = &trace;

  std::vector<int> refs(static_cast<std::size_t>(data.size()));
  std::iota(refs.begin(), refs.end(), 0);

  std::vector<int> queries;
  PointTable combined;  // used only with --queries
  const std::string qpath = a.get("queries");
  const PointTable* X = &data;
  if (qpath.empty()) {
    // All-pairs over the dataset itself.
    queries = refs;
  } else {
    // External query set: append its points to a combined table so the
    // kernel's single-table interface applies.
    const PointTable qtable = load_any(qpath);
    if (qtable.dim() != data.dim()) {
      throw std::runtime_error("query/data dimension mismatch");
    }
    combined.resize(data.dim(), data.size() + qtable.size());
    std::memcpy(combined.data(), data.data(),
                sizeof(double) * static_cast<std::size_t>(data.dim()) * data.size());
    std::memcpy(combined.col(data.size()), qtable.data(),
                sizeof(double) * static_cast<std::size_t>(qtable.dim()) * qtable.size());
    combined.compute_norms();
    queries.resize(static_cast<std::size_t>(qtable.size()));
    std::iota(queries.begin(), queries.end(), data.size());
    X = &combined;
  }

  const std::string out = a.get("out");
  if (out.empty()) throw std::runtime_error("search requires --out");

  const bool pack_cache = a.has("pack-cache");
  const int repeat = std::max(1, static_cast<int>(a.get_long("repeat", 1)));
  const auto budget = static_cast<std::size_t>(a.get_long("cache-budget", 0));
  // Repeats feed the same candidates into the same rows; dedup rejects the
  // re-arrivals, so the table stays bitwise-identical to a single pass.
  if (repeat > 1) cfg.dedup = true;

  WallTimer timer;
  double secs;
  if (a.has("f32")) {
    // Single-precision path; save_neighbors_csv is double-only, so the CSV
    // (same query,rank,neighbor_id,distance schema) is written here.
    const PointTableF xf = to_float(*X);
    NeighborTableF result(static_cast<int>(queries.size()), k);
    PackedRefsF pr;
    if (pack_cache) {
      PackedRefsF::Options opt;
      opt.norm = cfg.norm;
      opt.budget_bytes = budget;
      const Status b = pr.build(xf, refs, opt);
      if (b != Status::kOk) {
        throw std::runtime_error(std::string("pack cache build failed: ") +
                                 status_name(b));
      }
    }
    timer.start();
    for (int r = 0; r < repeat; ++r) {
      if (pack_cache) {
        knn_kernel(pr, queries, result, cfg);
      } else {
        knn_kernel(xf, queries, refs, result, cfg);
      }
    }
    secs = timer.seconds();
    if (pack_cache) print_pack_stats(pr);
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + out);
    std::fputs("query,rank,neighbor_id,distance\n", f);
    for (int i = 0; i < result.rows(); ++i) {
      const auto row = result.sorted_row(i);
      for (std::size_t rank = 0; rank < row.size(); ++rank) {
        std::fprintf(f, "%d,%zu,%d,%.9g\n", i, rank, row[rank].second,
                     static_cast<double>(row[rank].first));
      }
    }
    std::fclose(f);
  } else {
    NeighborTable result(static_cast<int>(queries.size()), k);
    PackedRefs pr;
    if (pack_cache) {
      PackedRefs::Options opt;
      opt.norm = cfg.norm;
      opt.budget_bytes = budget;
      const Status b = pr.build(*X, refs, opt);
      if (b != Status::kOk) {
        throw std::runtime_error(std::string("pack cache build failed: ") +
                                 status_name(b));
      }
    }
    timer.start();
    for (int r = 0; r < repeat; ++r) {
      if (pack_cache) {
        knn_kernel(pr, queries, result, cfg);
      } else {
        knn_kernel(*X, queries, refs, result, cfg);
      }
    }
    secs = timer.seconds();
    if (pack_cache) print_pack_stats(pr);
    save_neighbors_csv(result, out);
  }
  std::printf("searched %zu queries x %d refs (d=%d, k=%d, %s) in %.3fs -> %s\n",
              queries.size(), data.size(), data.dim(), k,
              a.has("f32") ? "f32" : "f64", secs, out.c_str());
  if (cfg.profile != nullptr) emit_profile(prof, profile_json_path(a, out));
  if (cfg.trace != nullptr) emit_trace(trace, trace_json_path(a, out));
  emit_metrics(a, out);
  return 0;
}

/// Split the all-pairs search into `--tasks` contiguous query slices over
/// the shared reference set and run them through the §2.5 batch scheduler.
int cmd_batch(const Args& a) {
  const PointTable data = load_any(a.get("data"));
  const int k = static_cast<int>(a.get_long("k", 10));
  const int ntasks =
      std::max(1, static_cast<int>(a.get_long("tasks", 8)));
  KnnConfig cfg;
  cfg.norm = parse_norm(a.get("norm"));
  cfg.p = a.get_double("p", 3.0);
  cfg.threads = static_cast<int>(a.get_long("threads", 0));

  std::vector<int> refs(static_cast<std::size_t>(data.size()));
  std::iota(refs.begin(), refs.end(), 0);
  NeighborTable result(data.size(), k);

  const bool pack_cache = a.has("pack-cache");
  std::size_t ntasks_run = 0;
  WallTimer timer;
  double secs;
  const int n = data.size();
  PackedRefs pr;
  if (pack_cache) {
    // One warm call over every query: the packed panels are shared by all
    // rows, so splitting the rows into tasks would only stream them again.
    PackedRefs::Options opt;
    opt.norm = cfg.norm;
    opt.budget_bytes = static_cast<std::size_t>(a.get_long("cache-budget", 0));
    const Status b = pr.build(data, refs, opt);
    if (b != Status::kOk) {
      throw std::runtime_error(std::string("pack cache build failed: ") +
                               status_name(b));
    }
    ntasks_run = 1;
    timer.start();
    knn_kernel(pr, refs, result, cfg);
    secs = timer.seconds();
    print_pack_stats(pr);
  } else {
    std::vector<KnnTask> tasks;
    tasks.reserve(static_cast<std::size_t>(ntasks));
    for (int t = 0; t < ntasks; ++t) {
      const int lo = static_cast<int>(static_cast<long>(n) * t / ntasks);
      const int hi = static_cast<int>(static_cast<long>(n) * (t + 1) / ntasks);
      if (hi <= lo) continue;
      KnnTask task;
      task.qidx = std::span<const int>(refs.data() + lo,
                                       static_cast<std::size_t>(hi - lo));
      task.ridx = refs;
      task.result = &result;
      // Tasks share one table; aim each at its own query rows (ids == rows).
      task.result_rows = task.qidx;
      tasks.push_back(task);
    }
    ntasks_run = tasks.size();
    timer.start();
    knn_batch(data, tasks, k, cfg);
    secs = timer.seconds();
  }

  const std::string out = a.get("out");
  if (out.empty()) throw std::runtime_error("batch requires --out");
  save_neighbors_csv(result, out);
  std::printf("batch: %zu tasks over %d points (d=%d, k=%d) in %.3fs -> %s\n",
              ntasks_run, data.size(), data.dim(), k, secs, out.c_str());
  emit_metrics(a, out);
  return 0;
}

int cmd_allnn(const Args& a) {
  const PointTable data = load_any(a.get("data"));
  const int k = static_cast<int>(a.get_long("k", 10));
  tree::RkdConfig cfg;
  cfg.num_trees = static_cast<int>(a.get_long("trees", 8));
  cfg.leaf_size = static_cast<int>(a.get_long("leaf", 512));
  cfg.seed = static_cast<std::uint64_t>(a.get_long("seed", 0));
  cfg.kernel.threads = static_cast<int>(a.get_long("threads", 0));
  cfg.pack_cache = a.has("pack-cache");
  cfg.sweeps = std::max(1, static_cast<int>(a.get_long("sweeps", 1)));
  cfg.pack_cache_budget =
      static_cast<std::size_t>(a.get_long("cache-budget", 0));
  // Leaf kernels run sequentially inside the solver, so one shared sink
  // accumulates every leaf invocation race-free.
  telemetry::KernelProfile prof;
  if (a.has("profile")) cfg.kernel.profile = &prof;
  telemetry::TraceSink trace;
  if (a.has("trace")) cfg.kernel.trace = &trace;
  const auto result = tree::all_nearest_neighbors(data, k, cfg);
  const double recall = tree::recall_at_k(data, result.table, k,
                                          std::min(200, data.size()), 1);
  const std::string out = a.get("out");
  if (out.empty()) throw std::runtime_error("allnn requires --out");
  save_neighbors_csv(result.table, out);
  std::printf("all-NN: %d points, %d trees, leaf %d: build %.3fs + kernels "
              "%.3fs, recall@%d %.3f -> %s\n",
              data.size(), cfg.num_trees, cfg.leaf_size, result.build_seconds,
              result.kernel_seconds, k, recall, out.c_str());
  if (cfg.pack_cache) {
    std::printf("pack cache: %llu hits, %llu misses, %llu bytes packed "
                "(%d sweeps/tree)\n",
                static_cast<unsigned long long>(result.pack_hits),
                static_cast<unsigned long long>(result.pack_misses),
                static_cast<unsigned long long>(result.pack_bytes),
                cfg.sweeps);
  }
  if (cfg.kernel.profile != nullptr) {
    emit_profile(prof, profile_json_path(a, out));
  }
  if (cfg.kernel.trace != nullptr) emit_trace(trace, trace_json_path(a, out));
  emit_metrics(a, out);
  return 0;
}

int cmd_info(const Args& a) {
  const PointTable data = load_any(a.get("data"));
  double min_norm = 1e300, max_norm = -1e300, mean_norm = 0.0;
  for (int i = 0; i < data.size(); ++i) {
    const double s = data.norms2()[i];
    min_norm = std::min(min_norm, s);
    max_norm = std::max(max_norm, s);
    mean_norm += s;
  }
  if (data.size() > 0) mean_norm /= data.size();
  std::printf("points: %d\ndim: %d\nsquared norms: min %.4f mean %.4f max %.4f\n",
              data.size(), data.dim(), min_norm, mean_norm, max_norm);
  return 0;
}

/// Run a tiny in-memory self-test (one f64 and one f32 all-pairs search) so
/// the metrics registry, rolling windows, and flight recorder carry live
/// data, then write the one-shot diagnostics bundle.
int cmd_doctor(const Args& a) {
  diag::ensure_trigger_hook();
  const std::string out = a.get("out", "gsknn_doctor.json");

  const int d = 16, n = 256, k = 8;
  const PointTable data = make_uniform(d, n, 42);
  std::vector<int> refs(static_cast<std::size_t>(n));
  std::iota(refs.begin(), refs.end(), 0);
  KnnConfig cfg;
  NeighborTable result(n, k);
  knn_kernel(data, refs, refs, result, cfg);
  const PointTableF dataf = to_float(data);
  NeighborTableF resultf(n, k);
  knn_kernel(dataf, refs, refs, resultf, cfg);

  if (!diag::write_bundle(out.c_str(), "doctor")) {
    throw std::runtime_error("cannot write diagnostics bundle to " + out);
  }

  const metrics::MetricsSnapshot snap = metrics::snapshot();
  std::uint64_t total = 0;
  for (int s = 0; s < metrics::kStatusCount; ++s) total += snap.status_total(s);
  std::printf("doctor: diagnostics bundle -> %s\n", out.c_str());
  std::printf("  arch: %s\n", arch_summary().c_str());
  std::printf("  metrics: %llu calls total, %llu in the last %ds window "
              "(error rate %.4f)\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(snap.window_calls()),
              metrics::kWindowBuckets * metrics::kWindowBucketSeconds,
              snap.window_error_rate());
  std::printf("  flightrec: %zu events retained, %llu dropped, %s\n",
              flightrec::drain().size(),
              static_cast<unsigned long long>(flightrec::dropped()),
              flightrec::enabled() ? "armed" : "disarmed (GSKNN_FLIGHTREC=0)");
  std::printf("  validate with: python3 tools/check_diag.py %s\n",
              out.c_str());
  return 0;
}

/// Replay a synthetic open-loop arrival trace through the serving runtime
/// (gsknn/serving/server.hpp): Poisson arrivals split across the
/// interactive/bulk lanes, an optional concurrent mutator exercising the
/// epoch handshake, then a per-lane latency/fusion report. Open loop means
/// arrivals do not wait for completions — overload sheds as
/// kResourceExhausted at admission instead of queueing without bound.
int cmd_serve_sim(const Args& a) {
  const int d = static_cast<int>(a.get_long("d", 16));
  const int n = static_cast<int>(a.get_long("n", 4096));
  const int k = static_cast<int>(a.get_long("k", 8));
  const int queries = static_cast<int>(a.get_long("queries", 512));
  const int workers = static_cast<int>(a.get_long("workers", 2));
  const double rate = a.get_double("rate", 50000.0);  // arrivals per second
  const double bulk_frac = a.get_double("bulk-frac", 0.5);
  const double budget_ms = a.get_double("budget-ms", 0.0);
  const bool mutate = a.has("mutate");
  const auto seed = static_cast<std::uint64_t>(a.get_long("seed", 7));
  if (n < 128 || k < 1 || queries < 1 || rate <= 0.0) {
    throw std::runtime_error("serve-sim: need n >= 128, k >= 1, queries >= 1, rate > 0");
  }

  const PointTable data = make_uniform(d, n, seed);
  serving::ServerOptions sopt;
  sopt.workers = workers;
  serving::Server srv(data, sopt);
  // References: all but the last 64 points; queries draw from the tail so
  // a query is never its own nearest neighbor.
  const int nrefs = n - 64;
  std::vector<int> ids(static_cast<std::size_t>(nrefs));
  std::iota(ids.begin(), ids.end(), 0);
  if (srv.create_refs("main", ids) != Status::kOk) {
    throw std::runtime_error("serve-sim: create_refs failed");
  }

  std::atomic<bool> stop{false};
  std::thread mutator;
  if (mutate) {
    mutator = std::thread([&srv, nrefs, &stop] {
      std::vector<int> extra(32);
      std::iota(extra.begin(), extra.end(), nrefs);
      while (!stop.load(std::memory_order_relaxed)) {
        srv.insert_refs("main", extra);
        srv.erase_refs("main", extra);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> interarrival(rate);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<int> qpick(nrefs, n - 1);
  std::vector<serving::TicketId> tickets;
  tickets.reserve(static_cast<std::size_t>(queries));
  std::uint64_t shed = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < queries; ++i) {
    serving::SubmitOptions so;
    so.lane = coin(rng) < bulk_frac ? serving::Lane::kBulk
                                    : serving::Lane::kInteractive;
    if (budget_ms > 0.0) {
      so.budget = std::chrono::nanoseconds(
          static_cast<std::int64_t>(budget_ms * 1e6));
    }
    Status err = Status::kOk;
    const serving::TicketId t = srv.submit("main", qpick(rng), k, so, &err);
    if (t != 0) {
      tickets.push_back(t);
    } else if (err == Status::kResourceExhausted) {
      ++shed;  // open loop: overload sheds, the trace does not stall
    } else {
      throw std::runtime_error("serve-sim: submit failed");
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(interarrival(rng)));
  }
  std::uint64_t ok = 0, expired = 0, stale = 0, other = 0;
  for (const serving::TicketId t : tickets) {
    switch (srv.wait(t)) {
      case Status::kOk: ++ok; break;
      case Status::kDeadlineExceeded: ++expired; break;
      case Status::kStale: ++stale; break;
      default: ++other; break;
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stop.store(true, std::memory_order_relaxed);
  if (mutator.joinable()) mutator.join();

  const serving::Server::Stats st = srv.stats();
  std::printf("serve-sim: %d arrivals in %.3fs (%.0f/s offered)\n", queries,
              wall, queries / wall);
  std::printf("  ok %llu, expired %llu, stale %llu, other %llu, shed %llu\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(expired),
              static_cast<unsigned long long>(stale),
              static_cast<unsigned long long>(other),
              static_cast<unsigned long long>(shed));
  std::printf("  fusion: %llu queries over %llu fused calls (ratio %.2f), "
              "%llu requeues\n",
              static_cast<unsigned long long>(st.fused_queries),
              static_cast<unsigned long long>(st.fused_calls),
              srv.fusion_ratio(),
              static_cast<unsigned long long>(st.requeues));
  const metrics::MetricsSnapshot snap = metrics::snapshot();
  const auto lane_line = [&snap](const char* name, metrics::EntryPoint ep) {
    std::printf("  %s: %llu tickets, p50 %.3fms, p99 %.3fms (<=2x bucket "
                "upper bounds)\n",
                name,
                static_cast<unsigned long long>(snap.calls_total(ep)),
                snap.latency_quantile_ns(ep, 0.50) / 1e6,
                snap.latency_quantile_ns(ep, 0.99) / 1e6);
  };
  lane_line("interactive", metrics::EntryPoint::kServeInteractive);
  lane_line("bulk", metrics::EntryPoint::kServeBulk);

  if (a.has("chaos")) {
    // Deterministic overload epilogue (docs/SERVING.md "Overload &
    // degradation"): a stalled-worker fault makes every fused call trip
    // the watchdog, the resulting consecutive infrastructure failures open
    // the circuit breaker, and a hopeless budget guarantees a predictive
    // shed — so the chaos leg of `ctest -L observability` can assert all
    // three overload counters, the serve_watchdog flightrec events and the
    // health gauge end to end from one command.
    serving::ServerOptions copt;
    copt.workers = 1;
    copt.watchdog_factor = 0.5;
    copt.watchdog_floor = std::chrono::milliseconds(1);
    copt.breaker_threshold = 3;
    copt.breaker_cooldown = std::chrono::milliseconds(100);
    copt.retry.max_attempts = 2;
    copt.retry.base = std::chrono::microseconds(100);
    serving::Server chaos_srv(data, copt);
    if (chaos_srv.create_refs("main", ids) != Status::kOk) {
      throw std::runtime_error("serve-sim: chaos create_refs failed");
    }
    fault::FaultConfig fc;
    fc.serve_slow_us = 5000;  // every fused dispatch stalls 5 ms
    fault::configure(fc);
    for (int i = 0; i < 8; ++i) {
      const serving::SubmitResult r =
          chaos_srv.submit_ex("main", qpick(rng), k, {});
      if (r.ticket != 0) chaos_srv.wait(r.ticket);
    }
    fault::reset();
    serving::SubmitOptions tiny;
    tiny.budget = std::chrono::nanoseconds(1);  // can never fit: must shed
    std::uint64_t chaos_shed = 0;
    for (int i = 0; i < 4; ++i) {
      const serving::SubmitResult r =
          chaos_srv.submit_ex("main", qpick(rng), k, tiny);
      if (r.ticket == 0 && r.status == Status::kResourceExhausted) {
        ++chaos_shed;
      } else if (r.ticket != 0) {
        chaos_srv.wait(r.ticket);
      }
    }
    const serving::Server::Stats cst = chaos_srv.stats();
    std::printf("  chaos: watchdog fires %llu, breaker opens %llu, "
                "predictive sheds %llu, health %s\n",
                static_cast<unsigned long long>(cst.watchdog_fires),
                static_cast<unsigned long long>(cst.breaker_opens),
                static_cast<unsigned long long>(chaos_shed),
                serving::health_state_name(chaos_srv.health()));
    if (cst.watchdog_fires == 0 || cst.breaker_opens == 0 ||
        chaos_shed == 0) {
      throw std::runtime_error(
          "serve-sim: chaos epilogue failed to trip the overload machinery");
    }
  }

  if (a.has("doctor")) {
    // Bundle *this* process (chaos events included), for check_diag.py.
    const std::string path = a.get("doctor", "gsknn_serve_sim_doctor.json");
    if (!diag::write_bundle(path.c_str(), "serve-sim")) {
      throw std::runtime_error("serve-sim: cannot write bundle to " + path);
    }
    std::printf("  doctor: diagnostics bundle -> %s\n", path.c_str());
  }
  emit_metrics(a, a.get("out", "gsknn_serve_sim"));
  return 0;
}

void usage() {
  std::puts("usage: gsknn <generate|search|batch|allnn|info|doctor|serve-sim> [--options]\n"
            "  generate --out F --d D --n N [--dist uniform|gaussian|mixture] [--csv]\n"
            "  search   --data F --k K --out F [--queries F] [--norm l2|l1|linf|cos|lp]\n"
            "           [--variant auto|1|5] [--threads N] [--f32]\n"
            "           [--pack-cache] [--repeat R] [--cache-budget B] [--profile [F]]\n"
            "           [--trace [F]] [--metrics [F]] [--metrics-prom [F]]\n"
            "  batch    --data F --k K --out F [--tasks T] [--threads N]\n"
            "           [--pack-cache] [--cache-budget B]\n"
            "           [--metrics [F]] [--metrics-prom [F]]\n"
            "  allnn    --data F --k K --out F [--trees T] [--leaf L] [--threads N]\n"
            "           [--pack-cache] [--sweeps S] [--cache-budget B] [--profile [F]]\n"
            "           [--trace [F]] [--metrics [F]] [--metrics-prom [F]]\n"
            "  info     --data F\n"
            "  doctor   [--out F]  (diagnostics bundle; default gsknn_doctor.json)\n"
            "  serve-sim [--d D] [--n N] [--k K] [--queries Q] [--workers W]\n"
            "           [--rate QPS] [--bulk-frac F] [--budget-ms B] [--mutate]\n"
            "           [--chaos] [--doctor [F]] [--seed S] [--metrics [F]]\n"
            "           [--metrics-prom [F]]\n"
            "           (open-loop trace through the async serving runtime;\n"
            "            --chaos runs a deterministic overload epilogue that\n"
            "            trips the watchdog, breaker and predictive shed)");
}

}  // namespace

int main(int argc, char** argv) {
  // Fatal signals drain the flight recorder to GSKNN_FLIGHTREC_DUMP (or
  // stderr) before the default handler runs, so a crash leaves evidence.
  gsknn::flightrec::install_crash_handler();
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args = parse_args(argc, argv, 2);
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "search") return cmd_search(args);
    if (cmd == "batch") return cmd_batch(args);
    if (cmd == "allnn") return cmd_allnn(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "doctor") return cmd_doctor(args);
    if (cmd == "serve-sim") return cmd_serve_sim(args);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gsknn %s: error: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
