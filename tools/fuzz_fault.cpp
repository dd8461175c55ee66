// Fault-injection fuzz harness for the resource-governance contract
// (docs/ROBUSTNESS.md).
//
// Where fuzz_diff attacks the *inputs*, this harness attacks the *runtime*:
// per trial it runs one clean kernel call to get the reference answer, then
// replays the identical call under an injected fault — a failed aligned
// allocation, a forced mid-kernel cancellation, a deadline armed over an
// artificially slowed kernel, a workspace cap at a fraction of the natural
// footprint, or a cancelled batch — and checks the documented outcome:
//
//   1. the call returns either kOk with rows BITWISE-identical to the clean
//      run, or the matching pressure status (kResourceExhausted /
//      kCancelled / kDeadlineExceeded) — never a crash, never an exception
//      escaping a parallel region, never a wrong code;
//   2. on a pressure status every result row is in exactly one of three
//      states: untouched, complete and bitwise-identical to the clean row,
//      or flagged incomplete (NeighborTable::row_complete) while still
//      holding a valid partial heap — finite distances that match a scalar
//      oracle, ids drawn from ridx, no duplicates under dedup (no torn rows);
//   3. a workspace cap that the degradation ladder can satisfy yields
//      bitwise-identical results (only slower); one below the retile floors
//      fails up front with the result untouched — expectation decided by
//      plan_knn_workspace(), which must agree with the driver.
//
// Attacked calls run in a fresh std::thread so the thread-local workspace
// arenas start cold and the allocation sequence is deterministic: a counting
// twin (hooks armed but never firing) measures how many allocations/polls
// the call makes, and the attack replays it with the trigger aimed inside
// that range. Leak-freedom is checked by running the whole harness under
// the asan-ubsan preset (a ctest entry does this in CI).
//
// Runs for --seconds wall time (default 10) from --seed; on failure prints
// the trial's full repro parameters and exits nonzero.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gsknn/common/cancel.hpp"
#include "gsknn/common/fault.hpp"
#include "gsknn/common/rng.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/core/workspace.hpp"
#include "gsknn/data/point_table.hpp"
#include "test_util.hpp"

namespace {

using gsknn::KnnConfig;
using gsknn::KnnTask;
using gsknn::NeighborTable;
using gsknn::Norm;
using gsknn::PointTable;
using gsknn::Status;
using gsknn::Variant;

enum class Mode {
  kAlloc = 0,   // fail the Nth aligned allocation inside the kernel
  kCancel,      // force kCancelled at the Nth block-boundary poll
  kDeadline,    // slow every poll, arm a short real deadline
  kCap,         // cap the workspace at a fraction of the natural footprint
  kBatch,       // cancel mid-batch: finished/skipped task semantics
  kModeCount
};

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kAlloc:    return "alloc";
    case Mode::kCancel:   return "cancel";
    case Mode::kDeadline: return "deadline";
    case Mode::kCap:      return "cap";
    case Mode::kBatch:    return "batch";
    default:              return "?";
  }
}

/// Outcome tally (printed at exit): proves the harness is non-vacuous —
/// a healthy run shows every pressure status actually firing.
long g_status_counts[16] = {};

struct Trial {
  std::uint64_t seed = 0;
  long index = 0;
  Mode mode = Mode::kAlloc;
  Norm norm = Norm::kL2Sq;
  Variant variant = Variant::kAuto;
  int m = 0, n = 0, d = 0, k = 1;
  int threads = 1;
  bool dedup = false;
  std::int64_t trigger = 0;  // alloc_nth / cancel_at / cap divisor / ms
};

void print_repro(const Trial& t) {
  std::fprintf(
      stderr,
      "fuzz_fault FAILURE: repro with --seed=%llu at trial %ld\n"
      "  mode=%s norm=%d variant=%d m=%d n=%d d=%d k=%d threads=%d "
      "dedup=%d trigger=%lld\n",
      static_cast<unsigned long long>(t.seed), t.index, mode_name(t.mode),
      static_cast<int>(t.norm), static_cast<int>(t.variant), t.m, t.n, t.d,
      t.k, t.threads, t.dedup ? 1 : 0, static_cast<long long>(t.trigger));
}

double norm_tol(Norm norm, int d) {
  switch (norm) {
    case Norm::kL2Sq:  return 1e-9 * std::max(1, d);
    case Norm::kL1:    return 1e-10 * std::max(1, d);
    case Norm::kLInf:  return 1e-11;
    case Norm::kCosine: return 1e-9;
    default:           return 1e-9;
  }
}

std::vector<std::vector<std::pair<double, int>>> collect_rows(
    const NeighborTable& res) {
  std::vector<std::vector<std::pair<double, int>>> rows;
  rows.reserve(static_cast<std::size_t>(res.rows()));
  for (int i = 0; i < res.rows(); ++i) rows.push_back(res.sorted_row(i));
  return rows;
}

bool row_untouched(const NeighborTable& res, int i) {
  const int* ids = res.row_ids(i);
  for (int s = 0; s < res.row_stride(); ++s) {
    if (ids[s] != gsknn::heap::kNoId) return false;
  }
  return true;
}

/// A partial row must still be a *valid* heap snapshot: every occupied slot
/// finite, its id a real reference whose true distance matches, and (under
/// dedup) no id twice. This is the "no torn rows" half of the contract.
bool row_valid_partial(const NeighborTable& res, int i, const PointTable& X,
                       int qi, const std::unordered_set<int>& refs,
                       const Trial& t) {
  const double* d = res.row_dists(i);
  const int* ids = res.row_ids(i);
  const double tol = norm_tol(t.norm, t.d);
  std::unordered_set<int> seen;
  for (int s = 0; s < res.row_stride(); ++s) {
    if (ids[s] == gsknn::heap::kNoId) continue;
    if (!std::isfinite(d[s])) {
      std::fprintf(stderr, "row %d slot %d: non-finite distance\n", i, s);
      return false;
    }
    if (refs.count(ids[s]) == 0) {
      std::fprintf(stderr, "row %d slot %d: id %d not in ridx\n", i, s,
                   ids[s]);
      return false;
    }
    const double truth = gsknn::test::ref_distance(X, qi, ids[s], t.norm);
    if (std::abs(d[s] - truth) > tol) {
      std::fprintf(stderr,
                   "row %d slot %d: id %d dist %.17g, true %.17g (tol %g)\n",
                   i, s, ids[s], d[s], truth, tol);
      return false;
    }
    if (t.dedup && !seen.insert(ids[s]).second) {
      std::fprintf(stderr, "row %d repeats id %d under dedup\n", i, ids[s]);
      return false;
    }
  }
  return true;
}

/// The core post-fault invariant. `clean` holds the reference rows; row i of
/// the attacked table answers query qidx[map(i)].
bool check_outcome(Status s, const std::vector<Status>& allowed,
                   const NeighborTable& res,
                   const std::vector<std::vector<std::pair<double, int>>>&
                       clean,
                   const PointTable& X, const std::vector<int>& qidx,
                   const std::unordered_set<int>& refs, const Trial& t) {
  ++g_status_counts[static_cast<int>(s) & 15];
  if (std::find(allowed.begin(), allowed.end(), s) == allowed.end()) {
    std::fprintf(stderr, "unexpected status %s\n", gsknn::status_name(s));
    return false;
  }
  if (s == Status::kOk) {
    // A fault that never fired (or was absorbed) must change nothing.
    if (collect_rows(res) != clean) {
      std::fprintf(stderr, "kOk result differs from the clean run\n");
      return false;
    }
    for (int i = 0; i < res.rows(); ++i) {
      if (!res.row_complete(i)) {
        std::fprintf(stderr, "kOk but row %d flagged incomplete\n", i);
        return false;
      }
    }
    return true;
  }
  for (int i = 0; i < res.rows(); ++i) {
    if (row_untouched(res, i)) continue;  // never started
    if (res.row_complete(i)) {
      if (res.sorted_row(i) != clean[static_cast<std::size_t>(i)]) {
        std::fprintf(stderr, "row %d flagged complete but differs\n", i);
        return false;
      }
    } else if (!row_valid_partial(res, i, X, qidx[static_cast<std::size_t>(i)],
                                  refs, t)) {
      return false;
    }
  }
  return true;
}

/// Run `fn` on a fresh thread: its thread-local workspace arenas (and, for
/// a fresh OpenMP master, its worker pool's) start cold, so the aligned
/// allocation sequence of identical calls is identical — the counting twin
/// and the attack see the same numbering.
template <typename Fn>
void run_in_thread(Fn&& fn) {
  std::thread th(std::forward<Fn>(fn));
  th.join();
}

KnnConfig make_cfg(const Trial& t) {
  KnnConfig cfg;
  cfg.norm = t.norm;
  cfg.variant = t.variant;
  cfg.threads = t.threads;
  cfg.dedup = t.dedup;
  return cfg;
}

bool run_trial(Trial& t, gsknn::Xoshiro256& rng) {
  const int npts = t.m + t.n;
  PointTable X(t.d, npts);
  for (int i = 0; i < npts; ++i) {
    for (int r = 0; r < t.d; ++r) X.col(i)[r] = rng.uniform(-2.0, 2.0);
  }
  X.compute_norms();

  std::vector<int> q(static_cast<std::size_t>(t.m));
  for (auto& v : q) {
    v = static_cast<int>(rng.below(static_cast<std::uint64_t>(npts)));
  }
  std::vector<int> r(static_cast<std::size_t>(t.n));
  for (auto& v : r) {
    v = static_cast<int>(rng.below(static_cast<std::uint64_t>(npts)));
  }
  const std::unordered_set<int> refs(r.begin(), r.end());

  const KnnConfig cfg = make_cfg(t);

  // Reference answer (no hooks armed anywhere near it).
  gsknn::fault::reset();
  NeighborTable clean_res(t.m, t.k);
  if (t.dedup) clean_res.enable_dedup_index();
  gsknn::knn_kernel(X, q, r, clean_res, cfg);
  const auto clean = collect_rows(clean_res);

  bool ok = true;

  switch (t.mode) {
    case Mode::kAlloc: {
      // Counting twin on a cold thread: how many aligned allocations does
      // this exact call make?
      std::uint64_t allocs = 0;
      run_in_thread([&] {
        NeighborTable res(t.m, t.k);
        if (t.dedup) res.enable_dedup_index();
        gsknn::fault::configure({.alloc_nth = (1ll << 40)});
        (void)gsknn::knn_kernel_status(X, q, r, res, cfg);
        allocs = gsknn::fault::alloc_count();
        gsknn::fault::reset();
      });
      // Aim inside [1, allocs + 1]: the +1 case never fires and must come
      // back kOk-bitwise-clean.
      t.trigger = 1 + static_cast<std::int64_t>(
                          rng.below(static_cast<std::uint64_t>(allocs + 1)));
      run_in_thread([&] {
        NeighborTable res(t.m, t.k);
        if (t.dedup) res.enable_dedup_index();
        gsknn::fault::configure({.alloc_nth = t.trigger});
        const Status s = gsknn::knn_kernel_status(X, q, r, res, cfg);
        gsknn::fault::reset();
        ok = check_outcome(s, {Status::kOk, Status::kResourceExhausted}, res,
                           clean, X, q, refs, t);
      });
      break;
    }
    case Mode::kCancel: {
      std::uint64_t polls = 0;
      run_in_thread([&] {
        NeighborTable res(t.m, t.k);
        if (t.dedup) res.enable_dedup_index();
        gsknn::fault::configure({.cancel_at = (1ll << 40)});
        (void)gsknn::knn_kernel_status(X, q, r, res, cfg);
        polls = gsknn::fault::poll_count();
        gsknn::fault::reset();
      });
      t.trigger = 1 + static_cast<std::int64_t>(
                          rng.below(static_cast<std::uint64_t>(polls + 1)));
      run_in_thread([&] {
        NeighborTable res(t.m, t.k);
        if (t.dedup) res.enable_dedup_index();
        gsknn::fault::configure({.cancel_at = t.trigger});
        const Status s = gsknn::knn_kernel_status(X, q, r, res, cfg);
        gsknn::fault::reset();
        ok = check_outcome(s, {Status::kOk, Status::kCancelled}, res, clean,
                           X, q, refs, t);
      });
      break;
    }
    case Mode::kDeadline: {
      // Slow every poll so a short real deadline lands mid-kernel (or, for
      // trigger=0, before the first block).
      t.trigger = static_cast<std::int64_t>(rng.below(3));
      run_in_thread([&] {
        NeighborTable res(t.m, t.k);
        if (t.dedup) res.enable_dedup_index();
        KnnConfig dcfg = cfg;
        dcfg.deadline = gsknn::deadline_after_ms(t.trigger);
        gsknn::fault::configure({.slow_us = 300});
        const Status s = gsknn::knn_kernel_status(X, q, r, res, dcfg);
        gsknn::fault::reset();
        ok = check_outcome(s, {Status::kOk, Status::kDeadlineExceeded}, res,
                           clean, X, q, refs, t);
      });
      break;
    }
    case Mode::kCap: {
      // Natural footprint, then cap at total/divisor. plan_knn_workspace()
      // decides the expectation: fits -> bitwise-identical kOk; not even at
      // the floors -> kResourceExhausted with the result untouched.
      const gsknn::WorkspacePlan natural =
          gsknn::plan_knn_workspace<double>(t.m, t.n, t.d, t.k, cfg);
      const std::size_t divisors[] = {4, 8, 64, 100000};
      t.trigger = static_cast<std::int64_t>(divisors[rng.below(4)]);
      KnnConfig ccfg = cfg;
      ccfg.max_workspace_bytes = std::max<std::size_t>(
          1, natural.total_bytes() / static_cast<std::size_t>(t.trigger));
      const gsknn::WorkspacePlan capped =
          gsknn::plan_knn_workspace<double>(t.m, t.n, t.d, t.k, ccfg);
      NeighborTable res(t.m, t.k);
      if (t.dedup) res.enable_dedup_index();
      const Status s = gsknn::knn_kernel_status(X, q, r, res, ccfg);
      if (capped.fits) {
        ok = check_outcome(s, {Status::kOk}, res, clean, X, q, refs, t);
      } else {
        if (s != Status::kResourceExhausted) {
          std::fprintf(stderr, "plan says unreachable cap, kernel says %s\n",
                       gsknn::status_name(s));
          ok = false;
        }
        for (int i = 0; ok && i < res.rows(); ++i) {
          if (!row_untouched(res, i)) {
            std::fprintf(stderr, "exhausted up front but row %d written\n",
                         i);
            ok = false;
          }
        }
      }
      break;
    }
    case Mode::kBatch: {
      // Split the queries into tasks over disjoint row ranges of one shared
      // table, then cancel mid-batch: finished tasks must match the clean
      // rows, skipped/cut tasks must be flagged, nothing torn.
      const int nt = 2 + static_cast<int>(rng.below(4));
      std::vector<std::vector<int>> tq, trows;
      std::vector<KnnTask> tasks;
      NeighborTable batch_clean(t.m, t.k);
      NeighborTable batch_res(t.m, t.k);
      if (t.dedup) {
        batch_clean.enable_dedup_index();
        batch_res.enable_dedup_index();
      }
      for (int i = 0; i < nt; ++i) {
        const int lo = i * t.m / nt;
        const int hi = (i + 1) * t.m / nt;
        if (lo >= hi) continue;
        std::vector<int> part_q(q.begin() + lo, q.begin() + hi);
        std::vector<int> part_rows(static_cast<std::size_t>(hi - lo));
        for (int j = lo; j < hi; ++j) {
          part_rows[static_cast<std::size_t>(j - lo)] = j;
        }
        tq.push_back(std::move(part_q));
        trows.push_back(std::move(part_rows));
      }
      tasks.reserve(tq.size());
      for (std::size_t i = 0; i < tq.size(); ++i) {
        tasks.push_back(KnnTask{tq[i], r, &batch_clean, trows[i]});
      }
      gsknn::knn_batch(X, tasks, t.k, cfg);
      const auto bclean = collect_rows(batch_clean);
      for (auto& task : tasks) task.result = &batch_res;

      std::uint64_t polls = 0;
      run_in_thread([&] {
        NeighborTable scratch(t.m, t.k);
        if (t.dedup) scratch.enable_dedup_index();
        std::vector<KnnTask> count_tasks = tasks;
        for (auto& task : count_tasks) task.result = &scratch;
        gsknn::fault::configure({.cancel_at = (1ll << 40)});
        (void)gsknn::knn_batch_status(X, count_tasks, t.k, cfg);
        polls = gsknn::fault::poll_count();
        gsknn::fault::reset();
      });
      t.trigger = 1 + static_cast<std::int64_t>(
                          rng.below(static_cast<std::uint64_t>(polls + 1)));
      run_in_thread([&] {
        gsknn::fault::configure({.cancel_at = t.trigger});
        const Status s = gsknn::knn_batch_status(X, tasks, t.k, cfg);
        gsknn::fault::reset();
        ok = check_outcome(s, {Status::kOk, Status::kCancelled}, batch_res,
                           bclean, X, q, refs, t);
      });
      break;
    }
    default:
      ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  gsknn::test::FuzzRun run{10.0, 0xFA17FA17ull};
  long mode_counts[static_cast<int>(Mode::kModeCount)] = {};
  Trial t;

  const int rc = gsknn::test::fuzz_loop(
      argc, argv, "fuzz_fault", run,
      [&](gsknn::Xoshiro256& rng, long trials) {
        t = Trial{};
        t.seed = run.seed;
        t.index = trials;
        t.mode = static_cast<Mode>(
            rng.below(static_cast<std::uint64_t>(Mode::kModeCount)));
        const Norm norms[] = {Norm::kL2Sq, Norm::kL1, Norm::kLInf,
                              Norm::kCosine};
        t.norm = norms[rng.below(4)];
        t.variant = gsknn::test::draw_variant(rng);
        t.m = 1 + static_cast<int>(rng.below(48));
        t.n = 1 + static_cast<int>(rng.below(160));
        t.d = 1 + static_cast<int>(rng.below(40));
        t.k = 1 + static_cast<int>(rng.below(12));
        t.threads = 1 + static_cast<int>(rng.below(2)) * 2;  // 1 or 3
        t.dedup = (rng.below(2) != 0u);
        if (t.mode == Mode::kBatch) t.variant = Variant::kAuto;

        ++mode_counts[static_cast<int>(t.mode)];
        try {
          return run_trial(t, rng);
        } catch (...) {
          gsknn::fault::reset();
          throw;
        }
      },
      [&] { print_repro(t); });
  if (rc != 0) return rc;

  std::printf("fuzz_fault: %ld trials OK in %.1fs (seed=0x%llx)\n",
              run.trials, run.seconds,
              static_cast<unsigned long long>(run.seed));
  for (int i = 0; i < static_cast<int>(Mode::kModeCount); ++i) {
    std::printf("  %-8s %ld\n", mode_name(static_cast<Mode>(i)),
                mode_counts[i]);
  }
  std::printf("attacked-call outcomes:\n");
  for (int i = 0; i < 16; ++i) {
    if (g_status_counts[i] == 0) continue;
    std::printf("  %-18s %ld\n",
                gsknn::status_name(static_cast<Status>(i)),
                g_status_counts[i]);
  }
  return 0;
}
