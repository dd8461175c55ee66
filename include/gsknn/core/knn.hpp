// GSKNN — the fused general-stride k-nearest-neighbors kernel (the paper's
// contribution, §2.3–§2.5), plus the two baselines it is evaluated against.
//
// The kernel solves the *kNN kernel* problem: given m query points and n
// reference points — both given as index lists into a global d × N
// coordinate table X — update each query's k-nearest-neighbor list. It is
// the inner building block that exact low-d solvers and approximate high-d
// solvers (randomized KD-trees, LSH; see gsknn/tree) call many times.
//
// Typical use:
//
//   PointTable X = make_uniform(64, 100000, seed);
//   std::vector<int> q = ..., r = ...;           // global point ids
//   NeighborTable nn(q.size(), 16);              // starts at +inf
//   knn_kernel(X, q, r, nn);                     // exact 16-NN of q in r
//   auto best = nn.sorted_row(0);                // (dist², id) ascending
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>

#include "gsknn/common/arch.hpp"
#include "gsknn/common/cancel.hpp"
#include "gsknn/common/status.hpp"
#include "gsknn/common/telemetry.hpp"
#include "gsknn/data/point_table.hpp"
#include "gsknn/select/neighbor_table.hpp"

namespace gsknn {

namespace telemetry {
class TraceSink;  // gsknn/common/trace.hpp
}

/// Distance norms supported by the fused micro-kernels (§2.4). For kL2Sq
/// the reported distances are *squared* Euclidean; for kLp they are the
/// p-th power of the ℓp distance — monotone transforms that preserve
/// neighbor order, matching the paper's convention.
enum class Norm {
  kL2Sq,    ///< squared ℓ2 (the GEMM-expansion path; needs X.norms2())
  kL1,      ///< ℓ1 (VSUB/VAND/VADD form)
  kLInf,    ///< ℓ∞ (VSUB/VAND/VMAX form)
  kLp,      ///< general ℓp, 0 < p < ∞, scalar pow path
  kCosine,  ///< cosine distance 1 − qᵀr/(‖q‖·‖r‖); needs X.norms2().
            ///< Zero-norm points are at distance 1 from everything.
};

/// Placement of the neighbor selection within the six-loop nest (§2.3).
/// The value is the loop after which selection runs. Var#4 is excluded:
/// after the 4th loop the d-dimension is still blocked, so distances are
/// incomplete. Var#2 and Var#3 are the paper's dominated placements (§2.3).
/// The paper's Var#6 (select after the full m×n matrix) is not offered
/// either: Var#5 runs the same finished-row selection, bitwise-identically,
/// in a distance buffer bounded by nc instead of m×n — for n <= nc it is
/// literally the same single merge per row.
enum class Variant {
  kAuto = 0,  ///< kVar1 below k = 256, kVar5 from there (resolve_variant)
  kVar1 = 1,  ///< fused into the micro-kernel (best for small k)
  kVar5 = 5,  ///< after each finished m×nc panel (best for large k)
};

struct KnnConfig {
  Variant variant = Variant::kAuto;
  Norm norm = Norm::kL2Sq;
  double p = 3.0;  ///< exponent when norm == kLp
  /// Override the arch-derived blocking parameters (tests/tuning).
  std::optional<BlockingParams> blocking;
  int threads = 0;     ///< 0 = OpenMP default; 1 = sequential
  bool dedup = false;  ///< refuse ids already present in a row (tree solvers)
  /// Opt-in finite-coordinate check: scan every referenced query/reference
  /// point (O((m+n)·d)) and fail with Status::kNonFinite when any coordinate
  /// is NaN or ±inf. Off by default — the always-on validation (index
  /// bounds, sizes, config sanity) stays O(m+n), and non-finite inputs
  /// degrade gracefully anyway (non-finite distances never enter a neighbor
  /// list; see docs/CONTRACT.md).
  bool validate = false;
  /// Optional telemetry sink: every kernel invocation with this config
  /// accumulates its phase times, work counters, per-phase hardware counters
  /// (when perf_event_open is available; see gsknn/common/pmu.hpp) and
  /// resolved parameters into the profile (see gsknn/common/telemetry.hpp).
  /// Null = no instrumentation (the default path reads no clocks). The sink
  /// must outlive the call and must not be shared across concurrent kernel
  /// invocations.
  telemetry::KernelProfile* profile = nullptr;
  /// Optional trace sink: drivers record per-thread pack/micro/select spans
  /// into it for Chrome/Perfetto timeline export (gsknn/common/trace.hpp).
  /// Null = no timestamps are read. Unlike `profile`, one TraceSink MAY be
  /// shared across concurrent kernel invocations (per-thread rings), which
  /// is how knn_batch and the tree solvers produce one unified timeline.
  telemetry::TraceSink* trace = nullptr;
  /// Workspace cap in bytes for this call's packed panels, distance buffers
  /// and per-thread arenas (docs/ROBUSTNESS.md). 0 = the GSKNN_MAX_WORKSPACE
  /// environment cap, or unlimited when that is unset too. A cap below the
  /// natural footprint retiles nc/mc/dc downward — results stay
  /// bitwise-identical, only slower; a cap below the documented retile
  /// floor fails with Status::kResourceExhausted before any result row is
  /// written.
  std::size_t max_workspace_bytes = 0;
  /// Absolute steady-clock deadline polled at block boundaries. Expiry
  /// yields Status::kDeadlineExceeded with incomplete rows flagged on the
  /// result (see gsknn/common/cancel.hpp for the semantics).
  std::optional<Deadline> deadline;
  /// Shareable cancellation token polled at the same block boundaries;
  /// fires Status::kCancelled. The token must outlive the call; one token
  /// may govern many concurrent calls.
  const CancelToken* cancel = nullptr;
};

/// The GSKNN kernel (Algorithm 2.2/2.3). Updates `result` with the n
/// reference candidates for each of the m queries.
///
/// * `qidx`/`ridx` — global point ids of the queries/references (general
///   stride: any subset, any order; duplicates allowed in ridx only with
///   cfg.dedup).
/// * `result` — m-or-more-row NeighborTable; query i updates row
///   `result_rows.empty() ? i : result_rows[i]`. Passing `qidx` itself as
///   `result_rows` gives the all-NN "global table" pattern.
void knn_kernel(const PointTable& X, std::span<const int> qidx,
                std::span<const int> ridx, NeighborTable& result,
                const KnnConfig& cfg = {},
                std::span<const int> result_rows = {});

/// Single-precision kernel (extension beyond the paper's double-only
/// implementation): identical semantics and blocking discipline, float
/// storage, arithmetic and micro-kernels (scalar 8×4, AVX2 8×8, AVX-512
/// 16×8). Distances are float; roughly 2× the flops/s of the double path
/// at the same memory traffic.
void knn_kernel(const PointTableF& X, std::span<const int> qidx,
                std::span<const int> ridx, NeighborTableF& result,
                const KnnConfig& cfg = {},
                std::span<const int> result_rows = {});

/// Status-returning kernel: identical semantics to knn_kernel, but every
/// outcome comes back as a Status and nothing is thrown — runtime pressure
/// (kCancelled, kDeadlineExceeded, kResourceExhausted), argument errors and
/// any unexpected exception (kInternal; an allocation failure is
/// kResourceExhausted). The natural form for servers that treat
/// cancellation as a normal result. Every entry point is written once in
/// this form; its throwing twin (the void overloads above) raises
/// StatusError for every non-kOk outcome, carrying the failure's message
/// (the validation text for an argument error).
Status knn_kernel_status(const PointTable& X, std::span<const int> qidx,
                         std::span<const int> ridx, NeighborTable& result,
                         const KnnConfig& cfg = {},
                         std::span<const int> result_rows = {});
Status knn_kernel_status(const PointTableF& X, std::span<const int> qidx,
                         std::span<const int> ridx, NeighborTableF& result,
                         const KnnConfig& cfg = {},
                         std::span<const int> result_rows = {});

/// Algorithm 2.1: collect Q/R, C = −2·QᵀR via blas::dgemm, add norms, then
/// per-row STL-heap selection. Supports kL2Sq and kCosine only (the GEMM
/// expansion does not exist for other norms — the limitation §1 calls out).
/// The Table-5 phase times (Tcoll/Tgemm/Tsq2d/Theap) land in cfg.profile as
/// phases kCollect/kMicro/kSq2d/kSelect. Both baselines raise StatusError
/// for every non-kOk outcome, like the throwing kernel forms.
void knn_gemm_baseline(const PointTable& X, std::span<const int> qidx,
                       std::span<const int> ridx, NeighborTable& result,
                       const KnnConfig& cfg = {},
                       std::span<const int> result_rows = {});

/// FLANN/ANN-style baseline: one pass over references per query, scalar
/// distance loop, heap update. Any norm. The "much slower" class of
/// implementations the paper's related-work section measures against.
void knn_single_loop_baseline(const PointTable& X, std::span<const int> qidx,
                              std::span<const int> ridx,
                              NeighborTable& result, const KnnConfig& cfg = {},
                              std::span<const int> result_rows = {});

/// One independent kernel invocation inside a batch.
struct KnnTask {
  std::span<const int> qidx;
  std::span<const int> ridx;
  NeighborTable* result = nullptr;
  std::span<const int> result_rows = {};  ///< as in knn_kernel
};

/// Task-parallel batch execution (§2.5): kernels are sorted by
/// model-estimated runtime and assigned to threads by greedy
/// first-termination list scheduling; each kernel runs single-threaded.
/// Tasks must write to disjoint result rows if they share a NeighborTable.
void knn_batch(const PointTable& X, std::span<const KnnTask> tasks, int k,
               const KnnConfig& cfg = {});

/// Status-returning batch (never throws, like knn_kernel_status): under
/// cancellation/deadline, in-flight tasks finish, not-yet-started tasks are
/// skipped with their result rows flagged incomplete, and the first
/// pressure status is returned. Tasks sharing one NeighborTable must
/// target disjoint result rows — overlapping rows fail validation with
/// kInvalidArgument (a silent data race otherwise).
Status knn_batch_status(const PointTable& X, std::span<const KnnTask> tasks,
                        int k, const KnnConfig& cfg = {});

/// Reference-side data parallelism (§2.5, footnote 5: the Xeon Phi scheme).
/// The query-side 4th-loop parallelization of knn_kernel needs m ≥ mc·p to
/// occupy p threads; when m is small and n is large, this variant splits
/// the *references* across threads into private per-thread neighbor tables
/// and merges them afterwards — the race-free realization of parallelizing
/// the 3rd/6th loops. Results are identical to the sequential kernel.
void knn_kernel_parallel_refs(const PointTable& X, std::span<const int> qidx,
                              std::span<const int> ridx,
                              NeighborTable& result, const KnnConfig& cfg = {},
                              std::span<const int> result_rows = {});

/// Status-returning parallel_refs (never throws, like knn_kernel_status):
/// on cancellation/deadline/exhaustion the private-table merge is skipped
/// entirely, so the caller's result is untouched and the status tells the
/// whole story.
Status knn_kernel_parallel_refs_status(const PointTable& X,
                                       std::span<const int> qidx,
                                       std::span<const int> ridx,
                                       NeighborTable& result,
                                       const KnnConfig& cfg = {},
                                       std::span<const int> result_rows = {});

/// Resolve kAuto for a given shape (exposed for tests and benches).
Variant resolve_variant(int m, int n, int d, int k, const KnnConfig& cfg);

/// Validate kernel arguments without throwing: index bounds for qidx/ridx
/// (kBadIndex), result_rows size/range/uniqueness (kInvalidArgument /
/// kBadIndex), config sanity (kBadConfig) and — only when cfg.validate —
/// finite coordinates of every referenced point (kNonFinite). Returns the
/// first violation found; `msg`, when non-null, receives a human-readable
/// description. Called by every kernel entry point via check_knn_args.
template <typename T>
Status validate_knn_args(const PointTableT<T>& X, std::span<const int> qidx,
                         std::span<const int> ridx,
                         const NeighborTableT<T>& result, const KnnConfig& cfg,
                         std::span<const int> result_rows,
                         std::string* msg = nullptr);

/// Throwing wrapper over validate_knn_args: raises StatusError on the first
/// violation. The common path (valid input) costs one O(m+n) bounds scan.
template <typename T>
void check_knn_args(const PointTableT<T>& X, std::span<const int> qidx,
                    std::span<const int> ridx, const NeighborTableT<T>& result,
                    const KnnConfig& cfg, std::span<const int> result_rows);

}  // namespace gsknn
