// The six-loop GSKNN driver (paper Algorithm 2.2).
//
// Loop nest (outermost first), identical to the Goto/BLIS partitioning:
//   6th  jc over n  (block nc)  — reference panel, packed Rc lives in L3
//   5th  pc over d  (block dc)  — depth block; rank-dc accumulation
//   4th  ic over m  (block mc)  — query panel, packed Qc in L2; OpenMP here
//   3rd  jr over nc (step nr)   — micro-panel of Rc promoted to L1
//   2nd  ir over mc (step mr)   — micro-panel of Qc
//   1st  (inside the micro-kernel) over dc
//
// Variant = the loop after which neighbor selection runs. Var#1 selects in
// the micro-kernel and, when d ≤ dc, never materializes distances at all;
// Var#5 stores finished distances into a query-major buffer and selects
// after each m × nc panel.
//
// Resource governance (docs/ROBUSTNESS.md): every byte of workspace is
// planned up front (gsknn/core/workspace.hpp) and carved from per-call
// arenas, so allocation can only fail before the first result row is
// written; deadlines and cancellation are polled at block boundaries
// (5th-loop top and 4th-loop body entry), and an early stop flags the rows
// that missed candidates via NeighborTable::mark_row_incomplete.
//
// The whole driver is a template over the distance scalar: double is the
// paper-faithful path, float the single-precision extension. Only the
// micro-kernels and the blocking derivation differ per precision.
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "gsknn/common/fault.hpp"
#include "gsknn/common/flightrec.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/common/telemetry.hpp"
#include "gsknn/common/threads.hpp"
#include "gsknn/common/workspace.hpp"
#include "gsknn/core/entry_metrics.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/core/packed_refs.hpp"
#include "gsknn/core/workspace.hpp"
#include "gsknn/model/perf_model.hpp"
#include "micro.hpp"
#include "pack.hpp"
#include "profile.hpp"

namespace gsknn {

namespace core {
namespace {

/// Per-call workspace arenas (docs/ROBUSTNESS.md). The calling thread's
/// shared arena holds the packed Rc panel, reference norms and the distance
/// buffer; each OpenMP team thread's arena holds its private Qc panel and
/// query norms, then the batched row selection's scratch. thread_local for
/// the same reason the old packing arenas were: the grow-only reservations
/// stabilize after the first call, and concurrent single-threaded kernel
/// invocations (knn_batch workers) get disjoint arenas for free.
WorkspaceArena& shared_arena() {
  thread_local WorkspaceArena arena;
  return arena;
}

WorkspaceArena& thread_arena() {
  thread_local WorkspaceArena arena;
  return arena;
}

/// Sentinel "heap row" for padded tile rows: root = -inf rejects everything.
template <typename T>
const T* neg_inf_row() {
  alignas(64) static const T row[kMaxMr] = {
      -std::numeric_limits<T>::infinity()};
  return row;
}

int kDummyIds[kMaxMr] = {-1, -1, -1, -1, -1, -1, -1, -1,
                         -1, -1, -1, -1, -1, -1, -1, -1};

/// The d == 0 degenerate path, shared by the cold and packed drivers:
/// every point is the empty tuple and every pairwise distance is identically
/// 0 (cosine: 1, the zero-norm rule). Selection still honors dedup and the
/// lowest-id tie contract, so route a constant candidate row through the
/// ordinary row scan.
template <typename T>
Status degenerate_d0(const int* rid, int n, int m, NeighborTableT<T>& result,
                     const KnnConfig& cfg, std::span<const int> result_rows) {
  const T dist0 = (cfg.norm == Norm::kCosine) ? T(1) : T(0);
  AlignedBuffer<T> cand(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) cand.data()[j] = dist0;
  AlignedBuffer<SelPair<T>> scratch(static_cast<std::size_t>(n) + result.k());
  const int stride0 = result.row_stride();
  for (int i = 0; i < m; ++i) {
    const int row =
        result_rows.empty() ? i : result_rows[static_cast<std::size_t>(i)];
    row_select(cand.data(), rid, n, result.row_dists(row),
               result.row_ids(row), result.row_idset(row), result.k(),
               stride0, cfg.dedup, scratch.data());
  }
  return Status::kOk;
}

// ---- plan phase ------------------------------------------------------------
//
// The driver's pipeline is plan / pack / compute. The plan phase resolves
// everything the loop nest needs before a single byte moves: variant,
// micro-kernel, blocking, thread balancing and the byte-exact workspace
// plan. The pack phase is behind the RefPanels providers below (plus the
// per-thread Qc packing inside the nest); the compute phase is
// knn_kernel_compute.

/// Record the governance counters and flight-recorder events a finished
/// plan implies; an unreachable cap fails the call before anything moves.
template <typename T>
Status record_plan(const KernelPlanT<T>& kp) {
  if (!kp.ws.fits) return Status::kResourceExhausted;
  if (kp.ws.retile_steps > 0) {
    metrics::add_counter(metrics::Counter::kWorkspaceRetiledCalls);
    metrics::add_counter(metrics::Counter::kWorkspaceRetileSteps,
                         static_cast<std::uint64_t>(kp.ws.retile_steps));
    flightrec::record(flightrec::Kind::kRetile, -1, 0,
                      static_cast<std::uint64_t>(kp.ws.retile_steps));
  }
  return Status::kOk;
}

/// Warm-path plan: the pack geometry (nc, dc, nr, SIMD level) is pinned by
/// the cache — the kernel must walk the cached blocks exactly as they were
/// packed — so the plan selects the micro-kernel AT the cache's level for
/// the query norm, adopts the cache's blocking, and runs the planner in
/// packed_refs mode (Rc leaves the footprint; the ladder may only halve
/// mc). A query the cache cannot serve byte-identically —
/// incompatible layout class, or a norm whose kernel has a different sliver
/// width (float ℓp resolves to the scalar 8×4 kernel; an AVX2 8×8 cache
/// cannot feed it) — fails with kUnsupported, and the caller can fall back
/// to the cold path.
template <typename T>
Status plan_kernel_packed(const PackedRefsT<T>& refs, int m, int n, int d,
                          int k, const KnnConfig& cfg, KernelPlanT<T>& kp) {
  if (!refs.layout_compatible(cfg.norm)) return Status::kUnsupported;
  kp.mk = select_micro<T>(refs.level(), cfg.norm);
  kp.chosen = refs.level();
  kp.bp = refs.blocking();
  if (kp.mk.fn == nullptr || kp.mk.nr != kp.bp.nr) return Status::kUnsupported;
  kp.bp.mr = kp.mk.mr;
  kp.bp.mc = static_cast<int>(round_up(static_cast<std::size_t>(kp.bp.mc),
                                       static_cast<std::size_t>(kp.mk.mr)));
  if (cfg.blocking.has_value()) {
    // An explicit blocking override must agree with the cache on everything
    // the cached panels pin; only the query-side mc is free.
    const BlockingParams& ob = *cfg.blocking;
    if (!ob.valid()) {
      throw StatusError(Status::kBadConfig,
                        "gsknn: invalid blocking parameters");
    }
    if (ob.nc != kp.bp.nc || ob.dc != kp.bp.dc || ob.nr != kp.bp.nr ||
        ob.mr != kp.mk.mr) {
      return Status::kUnsupported;
    }
    kp.bp.mc = ob.mc;
  }
  plan_kernel_tail<T>(m, n, d, k, cfg, /*packed_refs=*/true, kp);
  return record_plan(kp);
}

// ---- pack phase (reference side) -------------------------------------------

/// Cold-path reference panels: pack each (jc, pc) slab into the shared
/// arena on demand — the pre-split driver's pack phase, verbatim. `rc`/`r2c`
/// are carved by knn_kernel_compute.
template <typename T>
struct ArenaRefPanels {
  static constexpr bool kCached = false;
  const PointTableT<T>* X = nullptr;
  const int* ridx = nullptr;
  SimdLevel chosen = SimdLevel::kScalar;
  int tnr = 0;
  T* rc = nullptr;
  T* r2c = nullptr;
  const unsigned char* rbad = nullptr;  ///< ℓ∞ non-finite flags (may be null)
  bool any_bad = false;
  Status err = Status::kOk;  ///< never set on the cold path

  /// Pack slab (jc, pc); returns the panel base and reports the bytes moved.
  const T* get(int jc, int nb, int nbpad, int pc, int db, bool last,
               bool needs_norms, std::uint64_t& bytes) {
    pack_points_rt(tnr, chosen, *X, ridx, jc, nb, pc, db, rc);
    if (any_bad) poison_packed(rc, rbad, jc, nb, tnr, db);
    if (last && needs_norms) pack_norms(tnr, *X, ridx, jc, nb, r2c);
    bytes = static_cast<std::uint64_t>(nbpad) * db * sizeof(T);
    if (last && needs_norms) {
      bytes += static_cast<std::uint64_t>(nbpad) * sizeof(T);
    }
    return rc;
  }
  const T* norms() const { return r2c; }
};

/// Warm-path reference panels: lease resident blocks from a PackedRefs
/// cache. One block is pinned at a time; a resident hit moves zero bytes
/// (the panels were packed by the same pack_points_rt/poison_packed calls
/// the cold provider makes, so the compute phase cannot tell the paths
/// apart). A failed acquire (allocation under a miss) surfaces through
/// `err` and stops the call like any other resource failure.
template <typename T>
struct CachedRefPanels {
  static constexpr bool kCached = true;
  PackedRefsT<T>* cache = nullptr;
  int nc = 0;
  std::uint64_t epoch = kEpochAny;  ///< generation every pin must match
  Status err = Status::kOk;
  int cur = -1;
  typename PackedRefsT<T>::Lease lease;

  const T* get(int jc, int nb, int nbpad, int pc, int db, bool last,
               bool needs_norms, std::uint64_t& bytes) {
    (void)nb;
    (void)nbpad;  // checked against the lease below in debug builds
    (void)db;
    (void)last;
    (void)needs_norms;
    const int b = jc / nc;
    bytes = 0;
    if (b != cur) {
      if (cur >= 0) cache->release(cur);
      cur = -1;
      const Status s = cache->acquire(b, lease, epoch);
      if (s != Status::kOk) {
        err = s;
        return nullptr;
      }
      cur = b;
      bytes = lease.bytes_packed;  // 0 on a warm hit
    }
    assert(lease.nbpad == nbpad);
    return lease.panel + static_cast<std::size_t>(lease.nbpad) * pc;
  }
  const T* norms() const { return lease.norms; }
  ~CachedRefPanels() {
    if (cur >= 0) cache->release(cur);
  }
};

// ---- compute phase ---------------------------------------------------------

/// The six-loop nest. Reference panels come from the RefPanels provider —
/// arena-packed (cold) or cache-leased (warm); everything else (query
/// packing, micro-kernels, selection, governance, telemetry) is one code
/// path, which is what makes cold and warm results bitwise-identical by
/// construction. `rid` is the reference id list the panels were packed from
/// (ridx.data() cold, refs.ids().data() warm).
template <typename T, typename RefPanels>
Status knn_kernel_compute(const PointTableT<T>& X, std::span<const int> qidx,
                          const int* rid, int n, NeighborTableT<T>& result,
                          const KnnConfig& cfg,
                          std::span<const int> result_rows,
                          const KernelPlanT<T>& kp, RefPanels& rpanels) {
  const int m = static_cast<int>(qidx.size());
  const int d = X.dim();
  const int k = result.k();

  // ℓ∞'s max-based accumulation cannot propagate NaN on its own (see
  // poison_packed in pack.hpp); pre-scan the query list once so the
  // per-block poison pass is skipped entirely on clean data. The reference
  // side is the provider's problem (cold: scanned by the caller; warm:
  // poisoned once at pack time inside the cache).
  std::vector<unsigned char> qbad;
  bool any_bad_q = false;
  if (cfg.norm == Norm::kLInf) {
    scan_nonfinite(X, qidx.data(), m, qbad, any_bad_q);
  }

  const Variant variant = kp.variant;
  const MicroFnT<T> micro = kp.mk.fn;
  const int tmr = kp.mk.mr;  // register-tile rows of the selected kernel
  const int tnr = kp.mk.nr;  // register-tile columns
  const SimdLevel chosen = kp.chosen;
  const int threads = kp.threads;
  const bool needs_norms = kp.needs_norms;
  const WorkspacePlan& plan = kp.ws;
  const int mc = kp.bp.mc;
  const int nc = kp.bp.nc;
  const int dc = kp.bp.dc;

  // Reserve every byte the call will touch before any result row can be
  // written: a genuine allocation failure (or an injected one;
  // gsknn/common/fault.hpp) surfaces as kResourceExhausted with the result
  // untouched. Nothing allocates inside the loop nest. Each team thread
  // reserves its own arena at the top of the parallel region below.
  std::atomic<int> stop{0};  // 0 = running; else the Status ending the call
  try {
    shared_arena().reserve(plan.shared_bytes);
  } catch (const std::bad_alloc&) {
    return Status::kResourceExhausted;
  }

  // Telemetry: every phase is one telemetry::PhaseSpan, which reads only
  // the clocks of the sinks attached (none: one predictable branch per
  // cache block). The work counters go to rec.slot(tid), null without a
  // profile sink.
  telemetry::Recorder rec(cfg.profile, threads, cfg.trace);

  const auto heap_row = [&](int i) {
    return result_rows.empty() ? i : result_rows[static_cast<std::size_t>(i)];
  };
  const int stride = result.row_stride();

  // Deadline/cancellation polling (block boundaries only; the hot loops are
  // never touched). One relaxed atomic load when fault injection is disarmed
  // and no token/deadline is set — `governed` keeps even that off the
  // common path.
  const bool governed =
      cfg.cancel != nullptr || cfg.deadline.has_value() || fault::active();
  const auto poll_stop = [&]() {
    Status s = Status::kOk;
    if (fault::active() && fault::inject_cancel()) {
      s = Status::kCancelled;
    } else if (cfg.cancel != nullptr && cfg.cancel->cancelled()) {
      s = Status::kCancelled;
    } else if (cfg.deadline.has_value() && deadline_expired(*cfg.deadline)) {
      s = Status::kDeadlineExceeded;
    }
    if (s != Status::kOk) {
      int expected = 0;
      if (stop.compare_exchange_strong(expected, static_cast<int>(s),
                                       std::memory_order_relaxed)) {
        // The thread that flips the stop flag logs the one event (the
        // other threads observe the same stop at their next poll).
        flightrec::record(s == Status::kCancelled
                              ? flightrec::Kind::kCancel
                              : flightrec::Kind::kDeadline,
                          -1, static_cast<int>(s), 0);
      }
    }
  };

  // Per-query completion tracking for early stops. Var#1 selects inside
  // the 4th-loop body, so an mc-block's rows are complete iff the block's
  // last-depth body ran for every jc panel; block_pass counts those. Each
  // entry is written by the one thread owning that ic iteration and read
  // only after the 4th loop's barrier — no atomics needed. Var#5 row scans
  // are skipped wholesale on a stop, so completion there is all-or-nothing.
  const int num_jc_blocks = static_cast<int>(ceil_div(n, nc));
  std::vector<int> block_pass(
      static_cast<std::size_t>(ceil_div(m, mc)), 0);

  // Shared-arena carving, byte-for-byte the plan's footprint. The distance
  // buffer holds one padded m × nc panel: Var#1 needs it only to carry
  // rank-dc accumulation when d > dc; Var#5 selects from it.
  const int db_max = (d < dc) ? d : dc;
  const int nbpad_max = static_cast<int>(round_up(
      static_cast<std::size_t>(n < nc ? n : nc), static_cast<std::size_t>(tnr)));
  const bool needs_cbuf = (variant != Variant::kVar1) || (d > dc);
  const int mpad = static_cast<int>(round_up(static_cast<std::size_t>(m),
                                             static_cast<std::size_t>(tmr)));
  // Var#1's buffer is a pure rank-dc accumulator (only the micro-kernel ever
  // reads it back), so it uses column-major tiles with contiguous stores.
  // Var#5 selection scans query rows, so it pays the transposed
  // (query-major) layout. Either way the leading dimension gets one extra
  // cache line so power-of-two problem sizes don't alias all tile rows onto
  // a single cache set (pure conflict misses otherwise).
  const bool c_colmajor = (variant == Variant::kVar1);
  const int ld =
      (c_colmajor ? mpad : nbpad_max) + static_cast<int>(64 / sizeof(T));
  WorkspaceArena& sws = shared_arena();
  if constexpr (!RefPanels::kCached) {
    // Cold path: the Rc panel (+ reference norms) is carved per call; the
    // warm path reads them out of the cache's resident blocks instead, and
    // the packed_refs workspace plan excluded them from shared_bytes.
    rpanels.rc = sws.alloc<T>(static_cast<std::size_t>(nbpad_max) * db_max);
    rpanels.r2c = needs_norms
                      ? sws.alloc<T>(static_cast<std::size_t>(nbpad_max))
                      : nullptr;
  }
  T* cbuf = nullptr;
  if (needs_cbuf) {
    // Keep the size math in 64 bits and assert the byte count fits before
    // carving it (the int block geometry alone cannot prove this).
    const std::uint64_t celems =
        static_cast<std::uint64_t>(ld) *
        static_cast<std::uint64_t>(c_colmajor ? nbpad_max : mpad);
    assert(celems <= std::numeric_limits<std::size_t>::max() / sizeof(T));
    cbuf = sws.alloc<T>(static_cast<std::size_t>(celems));
  }

  // One parallel region runs the whole nest (§2.5). Each team thread
  // reserves its own arena at the top. Thread 0 polls the stop and packs
  // every Rc panel, so pack_r stays on its trace track. The team splits
  // each 4th loop and each Var#5 row scan with `omp for`.
  //
  // Uniform exits: every exit from a loop that holds a barrier is decided
  // by the plain shared `halt`. Thread 0 writes it before a barrier, every
  // thread reads it just after that barrier, and nobody writes it again
  // until every thread has passed the next one. Leaving on the live `stop`
  // instead would let one thread quit while its peers wait at a barrier —
  // a deadlock. Inside an `omp for` body, `stop` only skips blocks.
  bool halt = false;
  const T* rcp = nullptr;    // the current Rc panel, set by thread 0
  const T* r2cur = nullptr;  // its norms, on the last depth block
  std::atomic<bool> unreserved{false};
  // Thread 0 only: whether the team stops here — a stop already set, or
  // one this poll sets.
  const auto decide = [&] {
    if (governed && stop.load(std::memory_order_relaxed) == 0) poll_stop();
    halt = stop.load(std::memory_order_relaxed) != 0;
  };

  // Var#5 selection: one row scan over the query-major distance buffer
  // after each finished m × nc panel, the `nb` candidates of panel `jc`
  // per row. It is all or nothing: the stop is decided before the scan,
  // never inside it. Returns false when the team stops.
  const auto select_panel = [&](int jc, int nb) {
    GSKNN_OMP(omp masked)
    decide();
    GSKNN_OMP(omp barrier)
    if (halt) return false;
    const int tid = thread_id();
    telemetry::ThreadCounters* tc = rec.slot(tid);
    telemetry::PhaseSpan span =
        rec.span(tid, telemetry::Phase::kSelect, -1, jc);
    // The batch scratch reuses this thread's arena, idle between 4th loops.
    WorkspaceArena& ws = thread_arena();
    ws.rewind();
    SelPair<T>* const scratch =
        ws.alloc<SelPair<T>>(static_cast<std::size_t>(nb) + k);
    GSKNN_OMP(omp for schedule(static) nowait)
    for (int i = 0; i < m; ++i) {
      const int row = heap_row(i);
      row_select(cbuf + static_cast<long>(i) * ld, rid + jc, nb,
                 result.row_dists(row), result.row_ids(row),
                 result.row_idset(row), k, stride, cfg.dedup, scratch, tc);
    }
    span.close();
    GSKNN_OMP(omp barrier)  // before thread 0 writes `halt` again
    return true;
  };

  GSKNN_OMP(omp parallel num_threads(threads))
  {
    try {
      thread_arena().reserve(plan.per_thread_bytes);
    } catch (const std::bad_alloc&) {
      unreserved.store(true, std::memory_order_relaxed);
      stop.store(static_cast<int>(Status::kResourceExhausted),
                 std::memory_order_relaxed);
    }
    GSKNN_OMP(omp barrier)
    bool running = true;  // this thread's copy of the last `halt`
    for (int jc = 0; running && jc < n; jc += nc) {  // ---- 6th loop ----
      const int nb = (n - jc < nc) ? n - jc : nc;
      const int nbpad = static_cast<int>(round_up(
          static_cast<std::size_t>(nb), static_cast<std::size_t>(tnr)));

      for (int pc = 0; pc < d; pc += dc) {  // ---- 5th loop ----
        const int db = (d - pc < dc) ? d - pc : dc;
        const bool first = (pc == 0);
        const bool last = (pc + db >= d);

        // Pack phase, reference side: cold packs the slab into the arena
        // and reports its bytes; warm leases the cached block — 0 bytes on
        // a resident hit, which is exactly what kBytesPackedR then records.
        GSKNN_OMP(omp masked)
        {
          decide();
          if (!halt) {
            telemetry::PhaseSpan pack_r =
                rec.span(0, telemetry::Phase::kPackR, jc, pc);
            std::uint64_t pack_bytes = 0;
            rcp = rpanels.get(jc, nb, nbpad, pc, db, last, needs_norms,
                              pack_bytes);
            if (rcp == nullptr) {
              // Acquire failure (allocation under a cache miss): stop like
              // any other resource failure, the affected rows flagged below.
              int expected = 0;
              stop.compare_exchange_strong(expected,
                                           static_cast<int>(rpanels.err),
                                           std::memory_order_relaxed);
              halt = true;
            } else {
              r2cur = (last && needs_norms) ? rpanels.norms() : nullptr;
              pack_r.close();
              if (rec.active()) {
                rec.slot(0)->add(telemetry::Counter::kBytesPackedR,
                                 pack_bytes);
              }
            }
          }
        }
        GSKNN_OMP(omp barrier)
        running = !halt;
        if (!running) break;

        GSKNN_OMP(omp for schedule(static))
        for (int ic = 0; ic < m; ic += mc) {  // ---- 4th loop ----
          // Block-boundary cancellation point: a stop set while this body
          // is in flight lets it finish its whole block (per-row heap
          // updates are atomic w.r.t. their rows, so no torn rows).
          if (stop.load(std::memory_order_relaxed) != 0) continue;
          if (governed) {
            poll_stop();
            if (stop.load(std::memory_order_relaxed) != 0) continue;
          }
          // Exceptions must not escape the parallel region (that would
          // terminate the process). The only allocation reachable from
          // here is RowIdSet::grow under cfg.dedup, so the catch is a
          // backstop, not a code path.
          try {
          const int mb = (m - ic < mc) ? m - ic : mc;
          const int mbpad = static_cast<int>(round_up(
              static_cast<std::size_t>(mb), static_cast<std::size_t>(tmr)));
          const int tid = thread_id();
          telemetry::ThreadCounters* tc = rec.slot(tid);
          // One span over the block: pack-Qc, then the micro-kernel from
          // the same reading to the end of the 3rd loop.
          telemetry::PhaseSpan span =
              rec.span(tid, telemetry::Phase::kPackQ, ic, pc);
          WorkspaceArena& ws = thread_arena();
          ws.rewind();
          T* const qc = ws.alloc<T>(static_cast<std::size_t>(mbpad) * db);
          pack_points_rt(tmr, chosen, X, qidx.data(), ic, mb, pc, db, qc);
          if (any_bad_q) {
            poison_packed(qc, qbad.data(), ic, mb, tmr, db);
          }
          const T* q2c = nullptr;
          if (last && needs_norms) {
            T* const q2 = ws.alloc<T>(static_cast<std::size_t>(mbpad));
            pack_norms(tmr, X, qidx.data(), ic, mb, q2);
            q2c = q2;
          }
          span.next(telemetry::Phase::kMicro, ic, jc);
          if (tc != nullptr) {
            std::uint64_t bytes =
                static_cast<std::uint64_t>(mbpad) * db * sizeof(T);
            if (last && needs_norms) {
              bytes += static_cast<std::uint64_t>(mbpad) * sizeof(T);
            }
            tc->add(telemetry::Counter::kBytesPackedQ, bytes);
            tc->add(telemetry::Counter::kTiles,
                    static_cast<std::uint64_t>(mbpad / tmr) *
                        static_cast<std::uint64_t>(ceil_div(nb, tnr)));
            if (variant == Variant::kVar1 && last) {
              // Pre-count every candidate of the block as a root-reject;
              // each tile's inserts are reclassified into pushes below.
              const auto cands = static_cast<std::uint64_t>(mb) * nb;
              tc->add(telemetry::Counter::kCandidates, cands);
              tc->add(telemetry::Counter::kRootRejects, cands);
            }
          }

          for (int jr = 0; jr < nb; jr += tnr) {  // ---- 3rd loop ----
            const int cols = (nb - jr < tnr) ? nb - jr : tnr;
            const T* rs = rcp + static_cast<long>(jr) * db;
            const T* r2s = (last && needs_norms) ? r2cur + jr : nullptr;

            for (int ir = 0; ir < mb; ir += tmr) {  // ---- 2nd loop ----
              const int rows = (mb - ir < tmr) ? mb - ir : tmr;
              const T* qs = qc + static_cast<long>(ir) * db;
              const T* q2s = (last && needs_norms) ? q2c + ir : nullptr;

              T* ctile = nullptr;
              if (needs_cbuf) {
                ctile = c_colmajor
                            ? cbuf + (ic + ir) + static_cast<long>(jr) * ld
                            : cbuf + static_cast<long>(ic + ir) * ld + jr;
              }
              const T* cin = (!first && needs_cbuf) ? ctile : nullptr;
              T* cout = ctile;
              SelectCtxT<T> ctx;
              const SelectCtxT<T>* sel = nullptr;
              if (variant == Variant::kVar1 && last) {
                cout = nullptr;  // Var#1 discards the tile after selection
                for (int i = 0; i < tmr; ++i) {
                  if (i < rows) {
                    const int row = heap_row(ic + ir + i);
                    ctx.hd[i] = result.row_dists(row);
                    ctx.hi[i] = result.row_ids(row);
                    ctx.hset[i] = result.row_idset(row);
                  } else {
                    ctx.hd[i] = const_cast<T*>(neg_inf_row<T>());
                    ctx.hi[i] = kDummyIds;
                    ctx.hset[i] = nullptr;
                  }
                }
                ctx.cand_ids = rid + jc + jr;
                ctx.k = k;
                ctx.row_stride = stride;
                ctx.dedup = cfg.dedup;
                sel = &ctx;
              }

              micro(db, qs, rs, cin, ld, cout, ld, c_colmajor, q2s, r2s, last,
                    rows, cols, sel, cfg.p);
              if (sel != nullptr && tc != nullptr) {
                count_pushes(tc, ctx.pushes);
              }
            }  // 2nd loop
          }  // 3rd loop

          // The whole 3rd loop is micro-kernel time (for Var#1 that
          // includes the fused selection).
          span.close();
          if (last) ++block_pass[static_cast<std::size_t>(ic / mc)];
          } catch (const std::bad_alloc&) {
            int expected = 0;
            stop.compare_exchange_strong(
                expected, static_cast<int>(Status::kResourceExhausted),
                std::memory_order_relaxed);
          } catch (...) {
            int expected = 0;
            stop.compare_exchange_strong(expected,
                                         static_cast<int>(Status::kInternal),
                                         std::memory_order_relaxed);
          }
        }  // 4th loop
      }  // 5th loop

      if (variant == Variant::kVar5 && running) {
        running = select_panel(jc, nb);
      }
    }  // 6th loop
  }
  // A thread short of arena stopped the team before any row was touched.
  if (unreserved.load(std::memory_order_relaxed)) {
    return Status::kResourceExhausted;
  }

  const Status outcome =
      static_cast<Status>(stop.load(std::memory_order_acquire));
  if (outcome == Status::kOk) {
    // A finished run re-arms its rows: completion flags left over from an
    // earlier interrupted call on this table must not outlive a later call
    // that did offer every candidate to them.
    for (int i = 0; i < m; ++i) result.mark_row_complete(heap_row(i));
  } else {
    // Flag the rows that missed candidates. Var#1: per mc-block, rows
    // are complete iff every jc panel's last-depth body finished. Var#5:
    // a skipped selection region (or an unfinished accumulation) starves
    // every row uniformly.
    if (variant != Variant::kVar1) {
      for (int i = 0; i < m; ++i) result.mark_row_incomplete(heap_row(i));
    } else {
      for (int ic = 0; ic < m; ic += mc) {
        if (block_pass[static_cast<std::size_t>(ic / mc)] >= num_jc_blocks) {
          continue;
        }
        const int mb = (m - ic < mc) ? m - ic : mc;
        for (int i = 0; i < mb; ++i) {
          result.mark_row_incomplete(heap_row(ic + i));
        }
      }
    }
  }

  finish_profile(rec, {.algorithm = "gsknn",
                       .precision = sizeof(T) == 8 ? "f64" : "f32",
                       .shape = {m, n, d, k},
                       .threads = threads,
                       .variant = static_cast<int>(variant),
                       .level = chosen,
                       .blocking = kp.bp,
                       .method = model::method_for(variant),
                       .counters_enabled = true,
                       .workspace_bytes = plan.total_bytes(),
                       .workspace_cap = plan.cap_bytes,
                       .workspace_retiles = plan.retile_steps});
  return outcome;
}

/// Cold path: plan, then compute with arena-packed reference panels.
template <typename T>
Status knn_kernel_impl(const PointTableT<T>& X, std::span<const int> qidx,
                       std::span<const int> ridx, NeighborTableT<T>& result,
                       const KnnConfig& cfg,
                       std::span<const int> result_rows) {
  const int m = static_cast<int>(qidx.size());
  const int n = static_cast<int>(ridx.size());
  const int d = X.dim();
  const int k = result.k();
  // Full contract validation (docs/CONTRACT.md): throws StatusError before
  // any parallel region or allocation so malformed calls fail cleanly.
  check_knn_args(X, qidx, ridx, result, cfg, result_rows);
  if (m == 0 || n == 0) return Status::kOk;
  if (d == 0) return degenerate_d0(ridx.data(), n, m, result, cfg, result_rows);

  KernelPlanT<T> kp;
  plan_kernel<T>(m, n, d, k, cfg, kp);
  const Status planned = record_plan(kp);
  if (planned != Status::kOk) return planned;

  std::vector<unsigned char> rbad;
  bool any_bad_r = false;
  if (cfg.norm == Norm::kLInf) {
    scan_nonfinite(X, ridx.data(), n, rbad, any_bad_r);
  }
  ArenaRefPanels<T> rpanels;
  rpanels.X = &X;
  rpanels.ridx = ridx.data();
  rpanels.chosen = kp.chosen;
  rpanels.tnr = kp.mk.nr;
  rpanels.rbad = rbad.data();
  rpanels.any_bad = any_bad_r;
  return knn_kernel_compute<T>(X, qidx, ridx.data(), n, result, cfg,
                               result_rows, kp, rpanels);
}

/// Warm path: plan against the cache's pinned geometry, then compute with
/// cache-leased reference panels. The epoch handshake happens here, before
/// anything can touch the result table.
template <typename T>
Status packed_kernel_impl(PackedRefsT<T>& refs, std::span<const int> qidx,
                          NeighborTableT<T>& result, const KnnConfig& cfg,
                          std::span<const int> result_rows,
                          std::uint64_t expected_epoch) {
  if (!refs.built()) {
    throw StatusError(Status::kInvalidArgument,
                      "gsknn: PackedRefs::build() has not succeeded");
  }
  const PointTableT<T>& X = *refs.table();
  // One atomic (id list, epoch) capture: the whole call validates, plans and
  // pins against this generation. A concurrent insert()/erase() cannot swap
  // the list mid-call (the snapshot holds shared ownership) and cannot slip
  // a repacked panel in (every block pin below re-checks `epoch`).
  const typename PackedRefsT<T>::Snapshot snap = refs.snapshot();
  const std::span<const int> ridx(*snap.ids);
  const int m = static_cast<int>(qidx.size());
  const int n = static_cast<int>(ridx.size());
  const int d = X.dim();
  const int k = result.k();
  check_knn_args(X, qidx, ridx, result, cfg, result_rows);
  if (expected_epoch != kEpochAny && expected_epoch != snap.epoch) {
    // No row saw any candidate of the caller's generation — flag them all,
    // exactly like a mid-flight pin rejection. Untouched rows of a fresh
    // table read vacuously complete, so skipping this would let a stale
    // reject masquerade as a finished (empty) result to anyone gating on
    // row_complete().
    for (int i = 0; i < m; ++i) {
      result.mark_row_incomplete(result_rows.empty()
                                     ? i
                                     : result_rows[static_cast<std::size_t>(i)]);
    }
    flightrec::record(flightrec::Kind::kStaleReject, -1,
                      static_cast<int>(Status::kStale), snap.epoch, m, n,
                      d, k);
    return Status::kStale;
  }
  if (m == 0 || n == 0) return Status::kOk;
  if (d == 0) return degenerate_d0(ridx.data(), n, m, result, cfg, result_rows);

  KernelPlanT<T> kp;
  const Status planned = plan_kernel_packed<T>(refs, m, n, d, k, cfg, kp);
  if (planned != Status::kOk) return planned;

  CachedRefPanels<T> rpanels;
  rpanels.cache = &refs;
  rpanels.nc = kp.bp.nc;
  rpanels.epoch = snap.epoch;  // kEpochAny resolves to the entry epoch
  return knn_kernel_compute<T>(X, qidx, ridx.data(), n, result, cfg,
                               result_rows, kp, rpanels);
}

/// The metrics entry point a kernel call of precision T is recorded under.
template <typename T>
constexpr metrics::EntryPoint kernel_entry_point() {
  return sizeof(T) == 8 ? metrics::EntryPoint::kKernelF64
                        : metrics::EntryPoint::kKernelF32;
}

/// Cold kernel entry: the run_entry bracket plus, for clean runs, one
/// model-drift sample from the same measured interval, comparing it against
/// the §2.6 prediction for the shape the call resolved to (Fig. 4 as a
/// continuously monitored calibration error).
template <typename T>
Status kernel_entry(const PointTableT<T>& X, std::span<const int> qidx,
                    std::span<const int> ridx, NeighborTableT<T>& result,
                    const KnnConfig& cfg, std::span<const int> result_rows) {
  const int m = static_cast<int>(qidx.size());
  const int n = static_cast<int>(ridx.size());
  const int d = X.dim();
  const int k = result.k();
  EntryTiming timing;
  const Status s = run_entry(
      kernel_entry_point<T>(), m, n, d, k,
      [&] {
        return knn_kernel_impl<T>(X, qidx, ridx, result, cfg, result_rows);
      },
      &timing);
  if (s == Status::kOk && timing.end_ns != 0 && metrics::enabled() && m > 0 &&
      n > 0 && d > 0 && k > 0) {
    const BlockingParams bp = cfg.blocking.value_or(
        default_blocking(cpu_features().best_level()));
    const double predicted = model::predicted_time(
        model::method_for(resolve_variant(m, n, d, k, cfg)), {m, n, d, k},
        model::machine(), bp);
    metrics::record_drift_at(timing.end_ns, sizeof(T) == 4, predicted,
                             static_cast<double>(timing.elapsed_ns) * 1e-9);
  }
  return s;
}

/// Warm kernel entry: the same bracket under the kernel entry-point axis —
/// warm and cold traffic share one rate, which is what a server dashboard
/// wants. No model-drift sample: the §2.6 model prices the pack phase the
/// warm path skips, so a warm call would read as spurious model optimism.
template <typename T>
Status kernel_entry(PackedRefsT<T>& refs, std::span<const int> qidx,
                    NeighborTableT<T>& result, const KnnConfig& cfg,
                    std::span<const int> result_rows,
                    std::uint64_t expected_epoch) {
  return run_entry(
      kernel_entry_point<T>(), static_cast<int>(qidx.size()), refs.size(),
      refs.built() ? refs.table()->dim() : 0, result.k(), [&] {
        return packed_kernel_impl<T>(refs, qidx, result, cfg, result_rows,
                                     expected_epoch);
      });
}

}  // namespace
}  // namespace core

Variant resolve_variant(int /*m*/, int /*n*/, int /*d*/, int k,
                        const KnnConfig& cfg) {
  if (cfg.variant != Variant::kAuto) return cfg.variant;
  // The paper's §3 rule is Var#1 up to k = 512, Var#6 beyond: a per-
  // candidate heap is the only selection cheap enough to fuse. Var#5 (the
  // paper's Var#6 selection in a buffer bounded by nc) merges finished rows
  // instead (row_select), which Fig. 5 now puts ahead of Var#1 from k = 64
  // to 128 (EXPERIMENTS.md "One finished-row merge"); 256 stays until a
  // workload runs 16 < k < 512.
  return k < core::kBatchSelectMinK ? Variant::kVar1 : Variant::kVar5;
}

Status knn_kernel_status(const PointTable& X, std::span<const int> qidx,
                         std::span<const int> ridx, NeighborTable& result,
                         const KnnConfig& cfg,
                         std::span<const int> result_rows) {
  return core::kernel_entry(X, qidx, ridx, result, cfg, result_rows);
}

Status knn_kernel_status(const PointTableF& X, std::span<const int> qidx,
                         std::span<const int> ridx, NeighborTableF& result,
                         const KnnConfig& cfg,
                         std::span<const int> result_rows) {
  return core::kernel_entry(X, qidx, ridx, result, cfg, result_rows);
}

Status knn_kernel_status(PackedRefs& refs, std::span<const int> qidx,
                         NeighborTable& result, const KnnConfig& cfg,
                         std::span<const int> result_rows,
                         std::uint64_t expected_epoch) {
  return core::kernel_entry(refs, qidx, result, cfg, result_rows,
                            expected_epoch);
}

Status knn_kernel_status(PackedRefsF& refs, std::span<const int> qidx,
                         NeighborTableF& result, const KnnConfig& cfg,
                         std::span<const int> result_rows,
                         std::uint64_t expected_epoch) {
  return core::kernel_entry(refs, qidx, result, cfg, result_rows,
                            expected_epoch);
}

void knn_kernel(const PointTable& X, std::span<const int> qidx,
                std::span<const int> ridx, NeighborTable& result,
                const KnnConfig& cfg, std::span<const int> result_rows) {
  core::throw_if_error(
      knn_kernel_status(X, qidx, ridx, result, cfg, result_rows));
}

void knn_kernel(const PointTableF& X, std::span<const int> qidx,
                std::span<const int> ridx, NeighborTableF& result,
                const KnnConfig& cfg, std::span<const int> result_rows) {
  core::throw_if_error(
      knn_kernel_status(X, qidx, ridx, result, cfg, result_rows));
}

void knn_kernel(PackedRefs& refs, std::span<const int> qidx,
                NeighborTable& result, const KnnConfig& cfg,
                std::span<const int> result_rows,
                std::uint64_t expected_epoch) {
  core::throw_if_error(knn_kernel_status(refs, qidx, result, cfg, result_rows,
                                         expected_epoch));
}

void knn_kernel(PackedRefsF& refs, std::span<const int> qidx,
                NeighborTableF& result, const KnnConfig& cfg,
                std::span<const int> result_rows,
                std::uint64_t expected_epoch) {
  core::throw_if_error(knn_kernel_status(refs, qidx, result, cfg, result_rows,
                                         expected_epoch));
}

}  // namespace gsknn
