// Task-parallel batch driver (§2.5).
//
// Many independent small kernels (one per tree leaf in the approximate
// solvers) rarely expose enough intra-kernel parallelism, so the paper
// schedules whole kernels across cores instead: estimate each kernel's
// runtime with the §2.6 model, sort descending, and greedily assign to the
// least-loaded processor (first-termination / LPT list scheduling).
//
// Governance: cancellation/deadline is polled between tasks (and inside
// each task kernel, at its block boundaries); on a stop, not-yet-started
// tasks are skipped with their result rows flagged incomplete. Tasks that
// share one NeighborTable must target disjoint rows — overlap is rejected
// up front (it would be a silent data race between workers).
#include <atomic>
#include <climits>
#include <unordered_map>
#include <vector>

#include "gsknn/common/fault.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/common/telemetry.hpp"
#include "gsknn/common/threads.hpp"
#include "gsknn/core/entry_metrics.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/model/perf_model.hpp"
#include "profile.hpp"

namespace gsknn {

namespace {

/// Flag every result row a task owns as incomplete (skipped/starved tasks).
/// Disjointness of rows across tasks sharing a table (validated below) makes
/// concurrent marking from several workers race-free — distinct bytes.
void mark_task_incomplete(const KnnTask& task) {
  if (!task.result_rows.empty()) {
    for (const int r : task.result_rows) task.result->mark_row_incomplete(r);
  } else {
    const int mq = static_cast<int>(task.qidx.size());
    for (int i = 0; i < mq; ++i) task.result->mark_row_incomplete(i);
  }
}

Status knn_batch_impl(const PointTable& X, std::span<const KnnTask> tasks,
                      int k, const KnnConfig& cfg) {
  const int t = static_cast<int>(tasks.size());
  if (t == 0) return Status::kOk;
  const int p = resolve_threads(cfg.threads);

  // Validate every task before the OpenMP region (a worker-side StatusError
  // could not propagate out of #pragma omp parallel). One bad task fails the
  // whole batch up front, before any task has run.
  for (int i = 0; i < t; ++i) {
    const auto& task = tasks[static_cast<std::size_t>(i)];
    if (task.result == nullptr) {
      throw StatusError(Status::kInvalidArgument,
                        "gsknn: batch task has a null result table");
    }
    check_knn_args(X, task.qidx, task.ridx, *task.result, cfg,
                   task.result_rows);
  }

  // Tasks may share a NeighborTable only on disjoint rows (the tree solvers'
  // global-table pattern). Overlap would let two concurrent workers sift the
  // same heap — a silent race — so reject it here, where check_knn_args has
  // already bounds-checked every row list. A task without result_rows owns
  // rows [0, m) of its table.
  std::unordered_map<const NeighborTable*, std::vector<unsigned char>> used;
  for (int i = 0; i < t; ++i) {
    const auto& task = tasks[static_cast<std::size_t>(i)];
    auto& rows_used = used[task.result];
    if (rows_used.empty()) {
      rows_used.assign(static_cast<std::size_t>(task.result->rows()), 0);
    }
    const int mq = static_cast<int>(task.qidx.size());
    for (int qi = 0; qi < mq; ++qi) {
      const int r = task.result_rows.empty()
                        ? qi
                        : task.result_rows[static_cast<std::size_t>(qi)];
      if (rows_used[static_cast<std::size_t>(r)] != 0) {
        throw StatusError(
            Status::kInvalidArgument,
            "gsknn: batch tasks write overlapping rows of a shared result "
            "table");
      }
      rows_used[static_cast<std::size_t>(r)] = 1;
    }
  }

  // Estimate per-task runtimes with the performance model.
  const SimdLevel level = cpu_features().best_level();
  const BlockingParams bp = cfg.blocking.value_or(default_blocking(level));
  std::vector<double> est(static_cast<std::size_t>(t));
  double queries = 0.0, pairs = 0.0;
  for (int i = 0; i < t; ++i) {
    const auto& task = tasks[static_cast<std::size_t>(i)];
    const model::ProblemShape s{static_cast<int>(task.qidx.size()),
                                static_cast<int>(task.ridx.size()), X.dim(),
                                k};
    const Variant v = resolve_variant(s.m, s.n, s.d, s.k, cfg);
    est[static_cast<std::size_t>(i)] = model::predicted_time(
        model::method_for(v), s, model::machine(), bp);
    queries += s.m;
    pairs += static_cast<double>(s.m) * s.n;
  }

  const std::vector<int> assignment = model::schedule_lpt(est, p);

  // Telemetry: per-worker private profiles (workers run concurrently and
  // must not share the caller's sink), finished as their threads' shares.
  const bool prof = (cfg.profile != nullptr);
  telemetry::Recorder rec(cfg.profile, p, cfg.trace);
  std::vector<telemetry::KernelProfile> wprof(
      prof ? static_cast<std::size_t>(p) : 0);

  // Batch-level stop: first pressure status wins; once set, every worker
  // skips its remaining tasks (flagging their rows). The task kernels poll
  // the same token/deadline at their own block boundaries, so an in-flight
  // task stops at block granularity, not task granularity.
  std::atomic<int> stop{0};
  const bool governed =
      cfg.cancel != nullptr || cfg.deadline.has_value() || fault::active();
  const auto poll_status = [&cfg]() {
    if (fault::active() && fault::inject_cancel()) return Status::kCancelled;
    if (cfg.cancel != nullptr && cfg.cancel->cancelled()) {
      return Status::kCancelled;
    }
    if (cfg.deadline.has_value() && deadline_expired(*cfg.deadline)) {
      return Status::kDeadlineExceeded;
    }
    return Status::kOk;
  };

  // Each worker executes its tasks sequentially; kernels run single-threaded.
  // task_cfg copies cfg wholesale, so a TraceSink on cfg.trace is shared by
  // every task kernel (safe: per-thread rings) — the exported timeline shows
  // the LPT schedule directly, one track per worker — and the deadline/cancel
  // token rides into every task kernel the same way.
  KnnConfig task_cfg = cfg;
  task_cfg.threads = 1;
  // Tasks were validated above; skip re-validation inside the workers.
  task_cfg.validate = false;
  GSKNN_OMP(omp parallel num_threads(p))
  {
    const int tid = thread_id();
    // The LPT schedule targeted p workers, but the delivered team can be
    // smaller (nested parallelism with max-active-levels, runtime caps).
    // Fold the absent workers' queues onto live threads — owner % nt — so
    // every task runs exactly once; with a full team the fold is the
    // identity and the schedule is untouched. Before this remap, tasks
    // assigned to absent workers silently never ran and their result rows
    // were reported complete while holding stale sentinels.
    const int nt = team_size();
    KnnConfig my_cfg = task_cfg;
    my_cfg.profile = prof ? &wprof[static_cast<std::size_t>(tid)] : nullptr;
    for (int i = 0; i < t; ++i) {
      if (assignment[static_cast<std::size_t>(i)] % nt != tid) continue;
      const auto& task = tasks[static_cast<std::size_t>(i)];
      if (stop.load(std::memory_order_relaxed) != 0) {
        mark_task_incomplete(task);
        continue;
      }
      if (governed) {
        const Status ps = poll_status();
        if (ps != Status::kOk) {
          int expected = 0;
          stop.compare_exchange_strong(expected, static_cast<int>(ps),
                                       std::memory_order_relaxed);
          mark_task_incomplete(task);
          continue;
        }
      }
      const Status s = knn_kernel_status(X, task.qidx, task.ridx,
                                         *task.result, my_cfg,
                                         task.result_rows);
      if (s != Status::kOk) {
        // kCancelled/kDeadlineExceeded already flagged the rows the kernel
        // could not finish; exhaustion/internal left rows untouched and
        // unflagged, so flag the whole task.
        if (s != Status::kCancelled && s != Status::kDeadlineExceeded) {
          mark_task_incomplete(task);
        }
        int expected = 0;
        stop.compare_exchange_strong(expected, static_cast<int>(s),
                                     std::memory_order_relaxed);
      }
    }
  }

  // The batch is one call: m counts its queries and n the references per
  // query on average, so (2d+3)·m·n is the batch's useful flop count.
  const model::ProblemShape shape{
      static_cast<int>(queries),
      queries > 0.0 ? static_cast<int>(pairs / queries + 0.5) : 0, X.dim(), k};
  const Variant v = resolve_variant(shape.m, shape.n, shape.d, k, cfg);
  core::finish_profile(rec,
                       {.algorithm = "gsknn_batch",
                        .shape = shape,
                        .threads = p,
                        .variant = static_cast<int>(v),
                        .level = level,
                        .blocking = bp,
                        .method = model::method_for(v)},
                       wprof);
  return static_cast<Status>(stop.load(std::memory_order_acquire));
}

/// Batch-level shape for the aggregate metrics: queries/references summed
/// across tasks (each task's kernel records its own exact shape too).
void batch_totals(std::span<const KnnTask> tasks, int& m_total,
                  int& n_total) {
  std::size_t m = 0, n = 0;
  for (const KnnTask& t : tasks) {
    m += t.qidx.size();
    n += t.ridx.size();
  }
  m_total = m > static_cast<std::size_t>(INT_MAX) ? INT_MAX
                                                  : static_cast<int>(m);
  n_total = n > static_cast<std::size_t>(INT_MAX) ? INT_MAX
                                                  : static_cast<int>(n);
}

}  // namespace

Status knn_batch_status(const PointTable& X, std::span<const KnnTask> tasks,
                        int k, const KnnConfig& cfg) {
  int m_total = 0, n_total = 0;
  batch_totals(tasks, m_total, n_total);
  return core::run_entry(metrics::EntryPoint::kBatch, m_total, n_total,
                         X.dim(), k,
                         [&] { return knn_batch_impl(X, tasks, k, cfg); });
}

void knn_batch(const PointTable& X, std::span<const KnnTask> tasks, int k,
               const KnnConfig& cfg) {
  core::throw_if_error(knn_batch_status(X, tasks, k, cfg));
}

}  // namespace gsknn
