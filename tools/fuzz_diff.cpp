// Differential fuzz harness for the kernel contract (docs/CONTRACT.md).
//
// Random-walks problem shapes (m, n, d, k), norms, variants, thread counts
// and dedup modes over adversarial inputs — NaN/Inf coordinates,
// exact ties, duplicate ids, zero points, empty index lists, k > n, d == 0 —
// and checks, per trial:
//
//   1. every variant × thread count returns BITWISE-identical rows
//      (the anchor is Var#1 single-threaded), in f64 and again in f32;
//   2. the parallel-refs merge driver and the single-loop baseline agree
//      with the anchor (exactly for the merge driver, to tolerance for the
//      baseline, whose distance formula differs);
//   3. the anchor matches a scalar oracle implementing the written contract:
//      per-slot distances to tolerance, every returned id's distance
//      plausible, non-finite points never present, dedup rows duplicate-free;
//   4. the GEMM baseline (ℓ2/cosine) agrees with the oracle to tolerance;
//   5. malformed calls (bad indices, duplicate result rows, bad lp/blocking,
//      undersized tables) throw StatusError with the documented code;
//   6. a PackedRefs cache walked through random insert/erase/query
//      interleavings (random geometry, eviction budgets) answers every
//      query bitwise-identically to the cold kernel over a snapshot of its
//      current id list, rejects stale epoch pins without touching the
//      result, and refuses layout-incompatible norms with kUnsupported;
//   7. the async serving runtime (gsknn::serving::Server) driven through
//      random submit / cancel / insert / erase interleavings — the worker
//      threads race the mutations for real — completes every kOk ticket
//      bitwise-identical to a cold synchronous kernel call over one of the
//      clean reference generations (never a mixed-epoch hybrid), reports
//      kCancelled only for tickets this harness cancelled, and returns no
//      result for non-kOk tickets.
//
// Runs for --seconds wall time (default 20) from --seed; on failure prints
// the trial's full repro parameters and exits nonzero.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "gsknn/common/rng.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/core/packed_refs.hpp"
#include "gsknn/data/point_table.hpp"
#include "gsknn/serving/server.hpp"
#include "test_util.hpp"

namespace {

using gsknn::KnnConfig;
using gsknn::NeighborTable;
using gsknn::Norm;
using gsknn::PointTable;
using gsknn::Status;
using gsknn::StatusError;
using gsknn::Variant;

enum class Mode {
  kClean = 0,
  kNaN,        // sprinkle NaN coordinates
  kInf,        // sprinkle ±Inf coordinates
  kTies,       // small-integer coordinates: many exact distance ties
  kZeros,      // some all-zero points (cosine zero-norm rule)
  kDupRefs,    // duplicate ids inside ridx
  kMixed,      // NaN + ties + duplicates together
  kModeCount
};

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kClean:   return "clean";
    case Mode::kNaN:     return "nan";
    case Mode::kInf:     return "inf";
    case Mode::kTies:    return "ties";
    case Mode::kZeros:   return "zeros";
    case Mode::kDupRefs: return "dup_refs";
    case Mode::kMixed:   return "mixed";
    default:             return "?";
  }
}

using gsknn::test::kExplicitVariants;

struct Trial {
  std::uint64_t seed = 0;
  long index = 0;
  Mode mode = Mode::kClean;
  Norm norm = Norm::kL2Sq;
  double p = 3.0;
  int m = 0, n = 0, d = 0, k = 1;
  bool dedup = false;
  double scale = 1.0;
};

void print_repro(const Trial& t) {
  std::fprintf(stderr,
               "fuzz_diff FAILURE: repro with --seed=%llu at trial %ld\n"
               "  mode=%s norm=%d p=%g m=%d n=%d d=%d k=%d dedup=%d scale=%g\n",
               static_cast<unsigned long long>(t.seed), t.index,
               mode_name(t.mode), static_cast<int>(t.norm), t.p, t.m, t.n,
               t.d, t.k, t.dedup ? 1 : 0, t.scale);
}

/// Absolute comparison tolerance for one trial: covers the GEMM-expansion
/// cancellation error (∝ scale² for ℓ2) and accumulation-order differences.
double trial_tol(const Trial& t) {
  const double d = std::max(1, t.d);
  switch (t.norm) {
    case Norm::kL2Sq:
      return 1e-9 * std::max(1.0, t.scale * t.scale * d);
    case Norm::kL1:
      return 1e-10 * std::max(1.0, t.scale * d);
    case Norm::kLInf:
      return 1e-11 * std::max(1.0, t.scale);
    case Norm::kLp:
      return 1e-8 * std::max(1.0, std::pow(t.scale, t.p) * d);
    case Norm::kCosine:
      return 1e-9;
  }
  return 1e-9;
}

template <typename T>
std::vector<std::vector<std::pair<T, int>>> collect_rows(
    const gsknn::NeighborTableT<T>& res, int m) {
  std::vector<std::vector<std::pair<T, int>>> rows;
  rows.reserve(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) rows.push_back(res.sorted_row(i));
  return rows;
}

template <typename T>
std::vector<std::vector<std::pair<T, int>>> run_kernel(
    const gsknn::PointTableT<T>& X, const std::vector<int>& q,
    const std::vector<int>& r, const Trial& t, Variant v, int threads) {
  gsknn::NeighborTableT<T> res(t.m, t.k);
  if (t.dedup) res.enable_dedup_index();
  KnnConfig cfg;
  cfg.norm = t.norm;
  cfg.p = t.p;
  cfg.variant = v;
  cfg.threads = threads;
  cfg.dedup = t.dedup;
  knn_kernel(X, q, r, res, cfg);
  return collect_rows(res, t.m);
}

bool check_against_oracle(
    const std::vector<std::vector<std::pair<double, int>>>& rows,
    const PointTable& X, const std::vector<int>& q, const std::vector<int>& r,
    const Trial& t, const char* what) {
  const double tol = trial_tol(t);
  for (int i = 0; i < t.m; ++i) {
    const auto expect = gsknn::test::ref_row(
        X, q[static_cast<std::size_t>(i)], r, t.k, t.norm, t.p, t.dedup);
    const auto& got = rows[static_cast<std::size_t>(i)];
    if (got.size() != expect.size()) {
      std::fprintf(stderr, "%s: row %d has %zu entries, oracle %zu\n", what,
                   i, got.size(), expect.size());
      return false;
    }
    for (std::size_t j = 0; j < got.size(); ++j) {
      if (!std::isfinite(got[j].first)) {
        std::fprintf(stderr, "%s: row %d slot %zu non-finite distance\n",
                     what, i, j);
        return false;
      }
      if (std::abs(got[j].first - expect[j].first) > tol) {
        std::fprintf(stderr,
                     "%s: row %d slot %zu dist %.17g vs oracle %.17g "
                     "(tol %.3g)\n",
                     what, i, j, got[j].first, expect[j].first, tol);
        return false;
      }
      // Id plausibility: the reported id's true distance must match the
      // reported distance (robust to near-tie reorderings).
      const double truth = gsknn::test::ref_distance(
          X, q[static_cast<std::size_t>(i)], got[j].second, t.norm, t.p);
      if (!std::isfinite(truth) ||
          std::abs(got[j].first - truth) > tol) {
        std::fprintf(stderr,
                     "%s: row %d id %d reported dist %.17g, true %.17g\n",
                     what, i, got[j].second, got[j].first, truth);
        return false;
      }
      if (t.dedup) {
        for (std::size_t l = j + 1; l < got.size(); ++l) {
          if (got[l].second == got[j].second) {
            std::fprintf(stderr, "%s: row %d repeats id %d under dedup\n",
                         what, i, got[j].second);
            return false;
          }
        }
      }
    }
  }
  return true;
}

/// Probe the documented error paths; any mismatch aborts the run.
bool probe_malformed(const PointTable& X) {
  const std::vector<int> q = {0, 1};
  const std::vector<int> r = {2, 3, 4};
  NeighborTable res(2, 2);
  struct Case {
    const char* name;
    Status expect;
    bool (*run)(const PointTable&, const std::vector<int>&,
                const std::vector<int>&, NeighborTable&);
  };
  const Case cases[] = {
      {"bad ridx", Status::kBadIndex,
       [](const PointTable& px, const std::vector<int>& pq,
          const std::vector<int>&, NeighborTable& pres) {
         const std::vector<int> bad = {0, px.size()};
         knn_kernel(px, pq, bad, pres, {});
         return false;
       }},
      {"negative qidx", Status::kBadIndex,
       [](const PointTable& px, const std::vector<int>&,
          const std::vector<int>& pr, NeighborTable& pres) {
         const std::vector<int> bad = {-1, 0};
         knn_kernel(px, bad, pr, pres, {});
         return false;
       }},
      {"duplicate result rows", Status::kInvalidArgument,
       [](const PointTable& px, const std::vector<int>& pq,
          const std::vector<int>& pr, NeighborTable& pres) {
         const std::vector<int> rows = {0, 0};
         knn_kernel(px, pq, pr, pres, {}, rows);
         return false;
       }},
      {"bad lp exponent", Status::kBadConfig,
       [](const PointTable& px, const std::vector<int>& pq,
          const std::vector<int>& pr, NeighborTable& pres) {
         KnnConfig cfg;
         cfg.norm = Norm::kLp;
         cfg.p = -2.0;
         knn_kernel(px, pq, pr, pres, cfg);
         return false;
       }},
      {"undersized result", Status::kInvalidArgument,
       [](const PointTable& px, const std::vector<int>&,
          const std::vector<int>& pr, NeighborTable&) {
         const std::vector<int> many = {0, 1, 2, 3};
         NeighborTable small(2, 2);
         knn_kernel(px, many, pr, small, {});
         return false;
       }},
      {"mismatched blocking", Status::kBadConfig,
       [](const PointTable& px, const std::vector<int>& pq,
          const std::vector<int>& pr, NeighborTable& pres) {
         KnnConfig cfg;
         cfg.blocking = gsknn::BlockingParams{};
         cfg.blocking->mr = 3;
         cfg.blocking->nr = 5;
         knn_kernel(px, pq, pr, pres, cfg);
         return false;
       }},
  };
  for (const Case& c : cases) {
    try {
      c.run(X, q, r, res);
      std::fprintf(stderr, "malformed probe '%s': no exception\n", c.name);
      return false;
    } catch (const StatusError& e) {
      if (e.status() != c.expect) {
        std::fprintf(stderr,
                     "malformed probe '%s': status %s, expected %s (%s)\n",
                     c.name, gsknn::status_name(e.status()),
                     gsknn::status_name(c.expect), e.what());
        return false;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "malformed probe '%s': wrong exception type: %s\n",
                   c.name, e.what());
      return false;
    }
  }
  return true;
}

/// Packed-refs round: walk one PackedRefs cache through random
/// insert/erase/query interleavings (sometimes under an eviction budget,
/// sometimes with a tiny blocking so even fuzz-sized trials span several
/// panel blocks). After every mutation the warm query must be
/// bitwise-identical to the cold kernel over a snapshot of the cache's
/// current id list — the cold run pins cfg.blocking to the cache geometry
/// so both sides feed candidates in the same order (ties resolve
/// identically). Finishes with the epoch and layout-class error contracts.
bool check_packed(const PointTable& X, const std::vector<int>& q,
                  const std::vector<int>& r, const Trial& t,
                  gsknn::Xoshiro256& rng) {
  using gsknn::PackedRefs;
  const std::uint64_t npts = static_cast<std::uint64_t>(X.size());

  PackedRefs::Options opt;
  opt.norm = t.norm;
  opt.eager = (rng.below(2) != 0u);
  if (rng.below(2) != 0u) {
    gsknn::BlockingParams bp;  // mr=8 / nr=4 resolves at every SIMD level
    bp.mr = 8;
    bp.nr = 4;
    bp.mc = 16;
    bp.nc = 16;
    bp.dc = 32;
    opt.blocking = bp;
  }
  PackedRefs refs;
  Status s = refs.build(X, r, opt);
  if (s != Status::kOk) {
    std::fprintf(stderr, "packed: build failed: %s\n", gsknn::status_name(s));
    return false;
  }

  // Sometimes rebuild under a budget that forces LRU eviction mid-walk. A
  // single-block cache cannot fit half its own footprint — that build is
  // contractually kResourceExhausted, so fall back to unlimited.
  if (rng.below(3) == 0u) {
    PackedRefs probe;
    PackedRefs::Options eager = opt;
    eager.eager = true;
    if (probe.build(X, r, eager) != Status::kOk) {
      std::fprintf(stderr, "packed: eager probe build failed\n");
      return false;
    }
    const std::size_t full = probe.stats().resident_bytes;
    if (full > 1) {
      opt.budget_bytes = full / 2 + 1;
      s = refs.build(X, r, opt);
      if (s == Status::kResourceExhausted) {
        opt.budget_bytes = 0;
        s = refs.build(X, r, opt);
      }
      if (s != Status::kOk) {
        std::fprintf(stderr, "packed: budgeted rebuild failed: %s\n",
                     gsknn::status_name(s));
        return false;
      }
    }
  }

  KnnConfig cfg;
  cfg.norm = t.norm;
  cfg.p = t.p;
  cfg.dedup = t.dedup;
  cfg.blocking = refs.blocking();

  for (int step = 0; step < 4; ++step) {
    // Mutate the reference set (exercises block-granularity repacking).
    const std::uint64_t op = rng.below(3);
    if (op == 0) {
      std::vector<int> add(1 + rng.below(3));
      for (auto& v : add) v = static_cast<int>(rng.below(npts));
      if (refs.insert(add) != Status::kOk) {
        std::fprintf(stderr, "packed: valid insert rejected at step %d\n",
                     step);
        return false;
      }
    } else if (op == 1 && refs.size() > 0) {
      const auto live = refs.ids();
      const std::vector<int> del = {
          live[rng.below(static_cast<std::uint64_t>(live.size()))]};
      if (refs.erase(del) != Status::kOk) {
        std::fprintf(stderr, "packed: valid erase rejected at step %d\n",
                     step);
        return false;
      }
    }  // op == 2: query-only step (pure warm traffic)

    cfg.variant = kExplicitVariants[rng.below(std::size(kExplicitVariants))];
    cfg.threads = (rng.below(2) != 0u) ? 3 : 1;

    const std::vector<int> snap(refs.ids().begin(), refs.ids().end());
    NeighborTable warm(t.m, t.k);
    if (t.dedup) warm.enable_dedup_index();
    s = knn_kernel_status(refs, q, warm, cfg, {}, refs.epoch());
    if (s != Status::kOk) {
      std::fprintf(stderr, "packed: warm query failed at step %d: %s\n",
                   step, gsknn::status_name(s));
      return false;
    }
    NeighborTable cold(t.m, t.k);
    if (t.dedup) cold.enable_dedup_index();
    knn_kernel(X, q, snap, cold, cfg);
    if (collect_rows(warm, t.m) != collect_rows(cold, t.m)) {
      std::fprintf(stderr,
                   "packed: warm/cold divergence at step %d (variant %d "
                   "threads %d refs %d)\n",
                   step, static_cast<int>(cfg.variant), cfg.threads,
                   refs.size());
      return false;
    }

    // One warm call over every query, its rows sent through result_rows in
    // reverse order, must put each cold row where it was sent.
    if (step == 0) {
      std::vector<int> rows(static_cast<std::size_t>(t.m));
      for (int i = 0; i < t.m; ++i) {
        rows[static_cast<std::size_t>(i)] = t.m - 1 - i;
      }
      NeighborTable mapped(t.m, t.k);
      if (t.dedup) mapped.enable_dedup_index();
      s = knn_kernel_status(refs, q, mapped, cfg, rows, refs.epoch());
      if (s != Status::kOk) {
        std::fprintf(stderr, "packed: mapped-row query failed: %s\n",
                     gsknn::status_name(s));
        return false;
      }
      for (int i = 0; i < t.m; ++i) {
        if (mapped.sorted_row(t.m - 1 - i) != cold.sorted_row(i)) {
          std::fprintf(stderr, "packed: mapped-row/cold divergence\n");
          return false;
        }
      }
    }
  }

  // Epoch handshake: a pin captured before an update must be rejected with
  // kStale and the result left untouched.
  {
    const std::uint64_t pinned = refs.epoch();
    const std::vector<int> add = {static_cast<int>(rng.below(npts))};
    if (refs.insert(add) != Status::kOk) {
      std::fprintf(stderr, "packed: stale-probe insert rejected\n");
      return false;
    }
    NeighborTable res(t.m, t.k);
    s = knn_kernel_status(refs, q, res, cfg, {}, pinned);
    if (s != Status::kStale) {
      std::fprintf(stderr, "packed: stale pin returned %s, expected stale\n",
                   gsknn::status_name(s));
      return false;
    }
    for (int i = 0; i < t.m; ++i) {
      if (!res.sorted_row(i).empty()) {
        std::fprintf(stderr, "packed: stale call touched result row %d\n", i);
        return false;
      }
    }
  }

  // Layout classes: a poisoned (ℓ∞) cache serves only ℓ∞ and vice versa.
  // d == 0 short-circuits before the plan (no panels are read), so the
  // layout contract only applies to d > 0.
  if (t.d > 0) {
    KnnConfig bad = cfg;
    bad.norm = (t.norm == Norm::kLInf) ? Norm::kL2Sq : Norm::kLInf;
    bad.variant = Variant::kAuto;
    const std::vector<int> one = {0};
    NeighborTable res(1, 1);
    s = knn_kernel_status(refs, one, res, bad);
    if (s != Status::kUnsupported) {
      std::fprintf(stderr,
                   "packed: layout-incompatible norm returned %s, expected "
                   "unsupported\n",
                   gsknn::status_name(s));
      return false;
    }
  }
  return true;
}

/// Round 7: the serving runtime under random submit/cancel/mutate
/// interleavings. Ops issue from this thread while the server's workers
/// dispatch concurrently, so every interleaving of admission, fusion,
/// cancellation and epoch bumps is in play. The oracle tracks the clean
/// reference generations (the shadow list after each applied mutation); a
/// completed ticket must match the cold kernel over one generation that
/// existed between its submission and its completion — bitwise.
bool check_serving(gsknn::Xoshiro256& rng) {
  const int d = 6 + static_cast<int>(rng.below(16));
  const int npts = 140 + static_cast<int>(rng.below(80));
  const int kmax = 10;
  const int floor_refs = 24;  // erase never shrinks the set below this
  PointTable X(d, npts);
  for (int i = 0; i < npts; ++i) {
    for (int r = 0; r < d; ++r) X.col(i)[r] = rng.uniform(-1.0, 1.0);
  }
  X.compute_norms();

  gsknn::serving::ServerOptions sopt;
  sopt.workers = 1 + static_cast<int>(rng.below(2));
  sopt.max_fused_queries = 1 + static_cast<int>(rng.below(8));
  gsknn::serving::Server srv(X, sopt);

  // Unique ids throughout: with distinct clean points, equal id multisets
  // give bitwise-equal sorted rows whatever the internal list order, so the
  // shadow generations below are exact oracles.
  const int n0 = 40 + static_cast<int>(rng.below(40));
  std::vector<int> shadow(static_cast<std::size_t>(n0));
  for (int i = 0; i < n0; ++i) shadow[static_cast<std::size_t>(i)] = i;
  int next_unused = n0;
  std::vector<std::vector<int>> generations = {shadow};
  if (srv.create_refs("fz", shadow) != Status::kOk) {
    std::fprintf(stderr, "serving: create_refs failed\n");
    return false;
  }

  struct Pending {
    gsknn::serving::TicketId id = 0;
    int query = 0;
    int k = 1;
    std::size_t gen_at_submit = 0;
    bool cancelled = false;
  };
  std::vector<Pending> pending;

  const int ops = 50 + static_cast<int>(rng.below(70));
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t roll = rng.below(100);
    if (roll < 60) {  // submit
      Pending p;
      p.query = static_cast<int>(rng.below(static_cast<std::uint64_t>(npts)));
      p.k = 1 + static_cast<int>(rng.below(kmax));
      p.gen_at_submit = generations.size() - 1;
      gsknn::serving::SubmitOptions so;
      so.lane = (rng.below(2) != 0u) ? gsknn::serving::Lane::kBulk
                                     : gsknn::serving::Lane::kInteractive;
      Status err = Status::kOk;
      p.id = srv.submit("fz", p.query, p.k, so, &err);
      if (p.id == 0) {
        std::fprintf(stderr, "serving: submit rejected: %s\n",
                     gsknn::status_name(err));
        return false;
      }
      pending.push_back(p);
    } else if (roll < 75) {  // cancel a random live ticket
      if (!pending.empty()) {
        Pending& p = pending[rng.below(pending.size())];
        if (!p.cancelled && srv.cancel(p.id)) p.cancelled = true;
      }
    } else if (roll < 87) {  // insert fresh unique ids
      const int c = 1 + static_cast<int>(rng.below(6));
      if (next_unused + c <= npts) {
        std::vector<int> add(static_cast<std::size_t>(c));
        for (auto& v : add) v = next_unused++;
        if (srv.insert_refs("fz", add) != Status::kOk) {
          std::fprintf(stderr, "serving: insert_refs failed\n");
          return false;
        }
        shadow.insert(shadow.end(), add.begin(), add.end());
        generations.push_back(shadow);
      }
    } else {  // erase the most recent ids (keeps the floor)
      const int c = 1 + static_cast<int>(rng.below(6));
      if (static_cast<int>(shadow.size()) - c >= floor_refs) {
        const std::vector<int> del(shadow.end() - c, shadow.end());
        if (srv.erase_refs("fz", del) != Status::kOk) {
          std::fprintf(stderr, "serving: erase_refs failed\n");
          return false;
        }
        shadow.resize(shadow.size() - static_cast<std::size_t>(c));
        generations.push_back(shadow);
      }
    }
  }

  for (const Pending& p : pending) {
    Status st = srv.wait(p.id);
    std::vector<int> rid(static_cast<std::size_t>(p.k));
    std::vector<double> rd(static_cast<std::size_t>(p.k));
    const int got = srv.result(p.id, rid, rd);
    if (st != Status::kOk) {
      if (got != -1) {
        std::fprintf(stderr,
                     "serving: non-ok ticket %llu (%s) exposed a result\n",
                     static_cast<unsigned long long>(p.id),
                     gsknn::status_name(st));
        return false;
      }
      if (st == Status::kCancelled && !p.cancelled) {
        std::fprintf(stderr,
                     "serving: ticket %llu cancelled without a cancel call\n",
                     static_cast<unsigned long long>(p.id));
        return false;
      }
      if (st != Status::kCancelled && st != Status::kStale) {
        std::fprintf(stderr, "serving: ticket %llu failed: %s\n",
                     static_cast<unsigned long long>(p.id),
                     gsknn::status_name(st));
        return false;
      }
      continue;
    }
    if (got != p.k) {
      std::fprintf(stderr, "serving: ticket %llu returned %d of %d rows\n",
                   static_cast<unsigned long long>(p.id), got, p.k);
      return false;
    }
    const auto match = gsknn::test::match_shadow_generation(
        X, p.query, rid, rd, generations, p.gen_at_submit);
    if (match == gsknn::test::ShadowMatch::kOracleFailed) {
      std::fprintf(stderr, "serving: cold oracle failed\n");
      return false;
    }
    if (match == gsknn::test::ShadowMatch::kNoMatch) {
      std::fprintf(stderr,
                   "serving: ticket %llu (query %d k %d) matches no clean "
                   "generation [%zu..%zu] — mixed-epoch result\n",
                   static_cast<unsigned long long>(p.id), p.query, p.k,
                   p.gen_at_submit, generations.size() - 1);
      return false;
    }
  }
  return true;
}

bool run_trial(const Trial& t, gsknn::Xoshiro256& rng) {
  // Build the point pool. The coordinate magnitude is capped so that
  // squared norms stay far from the f64 overflow edge and (since the same
  // trial re-runs in f32) the f32 run sees representable values.
  const int npts = t.m + t.n + 8;
  PointTable X(t.d, npts);
  for (int i = 0; i < npts; ++i) {
    double* col = t.d > 0 ? X.col(i) : nullptr;
    for (int r = 0; r < t.d; ++r) {
      if (t.mode == Mode::kTies || t.mode == Mode::kMixed) {
        col[r] = static_cast<double>(rng.below(3)) * t.scale;
      } else {
        col[r] = rng.uniform(-t.scale, t.scale);
      }
    }
  }
  if (t.mode == Mode::kZeros || t.mode == Mode::kMixed) {
    for (int i = 0; i < npts; i += 5) {
      for (int r = 0; r < t.d; ++r) X.col(i)[r] = 0.0;
    }
  }
  if (t.mode == Mode::kNaN || t.mode == Mode::kMixed) {
    for (int i = 2; i < npts; i += 7) {
      if (t.d > 0) {
        X.col(i)[static_cast<int>(rng.below(static_cast<std::uint64_t>(t.d)))] =
            std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  if (t.mode == Mode::kInf) {
    for (int i = 3; i < npts; i += 6) {
      if (t.d > 0) {
        X.col(i)[static_cast<int>(rng.below(static_cast<std::uint64_t>(t.d)))] =
            (rng.below(2) != 0u) ? std::numeric_limits<double>::infinity()
                                 : -std::numeric_limits<double>::infinity();
      }
    }
  }
  X.compute_norms();

  std::vector<int> q(static_cast<std::size_t>(t.m));
  for (auto& v : q) v = static_cast<int>(rng.below(static_cast<std::uint64_t>(npts)));
  std::vector<int> r(static_cast<std::size_t>(t.n));
  for (auto& v : r) v = static_cast<int>(rng.below(static_cast<std::uint64_t>(npts)));
  if ((t.mode == Mode::kDupRefs || t.mode == Mode::kMixed) && t.n > 1) {
    for (int j = 1; j < t.n; j += 3) {
      r[static_cast<std::size_t>(j)] = r[static_cast<std::size_t>(j - 1)];
    }
  }

  // f64: bitwise identity of every variant × thread count.
  const auto anchor = run_kernel(X, q, r, t, Variant::kVar1, 1);
  for (Variant v : kExplicitVariants) {
    for (int threads : {1, 3}) {
      const auto rows = run_kernel(X, q, r, t, v, threads);
      if (rows != anchor) {
        std::fprintf(stderr, "f64 divergence: variant %d threads %d\n",
                     static_cast<int>(v), threads);
        return false;
      }
    }
  }

  // The reference-parallel merge driver must agree exactly as well.
  {
    NeighborTable res(t.m, t.k);
    if (t.dedup) res.enable_dedup_index();
    KnnConfig cfg;
    cfg.norm = t.norm;
    cfg.p = t.p;
    cfg.threads = 4;
    cfg.dedup = t.dedup;
    knn_kernel_parallel_refs(X, q, r, res, cfg);
    if (collect_rows(res, t.m) != anchor) {
      std::fprintf(stderr, "f64 divergence: parallel_refs\n");
      return false;
    }
  }

  // f32: independent bitwise identity across the same matrix.
  {
    const gsknn::PointTableF Xf = gsknn::to_float(X);
    const auto anchor_f = run_kernel(Xf, q, r, t, Variant::kVar1, 1);
    for (Variant v : kExplicitVariants) {
      for (int threads : {1, 3}) {
        const auto rows = run_kernel(Xf, q, r, t, v, threads);
        if (rows != anchor_f) {
          std::fprintf(stderr, "f32 divergence: variant %d threads %d\n",
                       static_cast<int>(v), threads);
          return false;
        }
      }
    }
  }

  // Anchor vs the contract oracle.
  if (!check_against_oracle(anchor, X, q, r, t, "kernel")) return false;

  // Single-loop baseline: same contract, different formula -> to tolerance.
  {
    NeighborTable res(t.m, t.k);
    if (t.dedup) res.enable_dedup_index();
    KnnConfig cfg;
    cfg.norm = t.norm;
    cfg.p = t.p;
    cfg.threads = 1;
    cfg.dedup = t.dedup;
    knn_single_loop_baseline(X, q, r, res, cfg);
    if (!check_against_oracle(collect_rows(res, t.m), X, q, r, t,
                              "single_loop")) {
      return false;
    }
  }

  // GEMM baseline where its decomposition exists.
  if (t.norm == Norm::kL2Sq || t.norm == Norm::kCosine) {
    NeighborTable res(t.m, t.k);
    if (t.dedup) res.enable_dedup_index();
    KnnConfig cfg;
    cfg.norm = t.norm;
    cfg.threads = 1;
    cfg.dedup = t.dedup;
    knn_gemm_baseline(X, q, r, res, cfg);
    if (!check_against_oracle(collect_rows(res, t.m), X, q, r, t, "gemm")) {
      return false;
    }
  }

  // Packed-refs differential round over the same trial shape.
  if (!check_packed(X, q, r, t, rng)) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  gsknn::test::FuzzRun run{20.0, 0x5EEDFACEull};
  long mode_counts[static_cast<int>(Mode::kModeCount)] = {};
  long large_k_trials = 0;
  long large_k_dedup = 0;  // large-k trials whose rows merge under dedup
  Trial t;

  const int rc = gsknn::test::fuzz_loop(
      argc, argv, "fuzz_diff", run,
      [&](gsknn::Xoshiro256& rng, long trials) {
        t = Trial{};
        t.seed = run.seed;
        t.index = trials;
        t.mode = static_cast<Mode>(
            rng.below(static_cast<std::uint64_t>(Mode::kModeCount)));
        const Norm norms[] = {Norm::kL2Sq, Norm::kL1, Norm::kLInf, Norm::kLp,
                              Norm::kCosine};
        t.norm = norms[rng.below(5)];
        t.p = (rng.below(2) != 0u) ? 2.5 : 1.3;
        // One trial in eight is large-k: only there does kAuto resolve to
        // Var#5 (explicit Var#5 merges rows at every k). Half of those draw
        // n in 256..640 and k in 256..n+6 (k > n included); the other half
        // n in 1024..1536 and k in 256..n/4, long enough rows for the
        // sampled bound on the k-th distance to narrow the batch.
        const bool large_k = (trials % 8 == 7);
        const bool long_rows = large_k && (trials % 16 == 15);
        t.m = static_cast<int>(rng.below(36));  // 0..35 (empty included)
        t.d = static_cast<int>(rng.below(34));  // 0..33 (d == 0 included)
        if (long_rows) {
          t.n = 1024 + static_cast<int>(rng.below(513));
          t.k = 256 + static_cast<int>(rng.below(
                          static_cast<std::uint64_t>(t.n / 4 - 255)));
        } else if (large_k) {
          t.n = 256 + static_cast<int>(rng.below(385));
          t.k = 256 + static_cast<int>(rng.below(
                          static_cast<std::uint64_t>(t.n - 249)));
        } else {
          t.n = static_cast<int>(rng.below(70));  // 0..69
          t.k = 1 + static_cast<int>(rng.below(
                        static_cast<std::uint64_t>(t.n + 6)));  // k > n too
        }
        if (large_k) ++large_k_trials;
        t.dedup = (rng.below(2) != 0u);
        if (large_k && t.dedup) ++large_k_dedup;
        const double scales[] = {1e-3, 1.0, 1e3, 1e6};
        t.scale = scales[rng.below(4)];
        if (t.norm == Norm::kLp) t.scale = std::min(t.scale, 1e3);

        ++mode_counts[static_cast<int>(t.mode)];
        if (!run_trial(t, rng)) return false;

        // The serving round spins up worker threads, so it interleaves at a
        // coarser cadence than the in-process rounds.
        if (trials % 16 == 0) {
          try {
            if (!check_serving(rng)) {
              std::fprintf(stderr, "fuzz_diff FAILURE in serving round\n");
              return false;
            }
          } catch (const std::exception& e) {
            std::fprintf(stderr, "serving round exception: %s\n", e.what());
            return false;
          }
        }

        // Error-path probes interleave with the differential trials.
        if (trials % 64 == 0) {
          PointTable probe(4, 8);
          for (int i = 0; i < 8; ++i) {
            for (int r = 0; r < 4; ++r) {
              probe.col(i)[r] = rng.uniform(-1.0, 1.0);
            }
          }
          probe.compute_norms();
          if (!probe_malformed(probe)) {
            std::fprintf(stderr,
                         "fuzz_diff FAILURE in malformed-input probes\n");
            return false;
          }
        }
        return true;
      },
      [&] { print_repro(t); });
  if (rc != 0) return rc;

  std::printf("fuzz_diff: %ld trials OK in %.1fs (seed=0x%llx)\n", run.trials,
              run.seconds, static_cast<unsigned long long>(run.seed));
  std::printf("  large-k  %ld (%ld dedup)\n", large_k_trials, large_k_dedup);
  for (int i = 0; i < static_cast<int>(Mode::kModeCount); ++i) {
    std::printf("  %-8s %ld\n", mode_name(static_cast<Mode>(i)),
                mode_counts[i]);
  }
  return 0;
}
