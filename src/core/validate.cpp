// Argument validation shared by every kernel entry point (the contract
// layer; see docs/CONTRACT.md). The always-on checks are O(m + n) integer
// scans — negligible next to the O(m·n·d) kernel, cheap enough even for the
// tree solvers' many small leaf calls. The O((m+n)·d) finite-coordinate
// scan runs only with KnnConfig::validate set.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "gsknn/core/knn.hpp"
#include "micro.hpp"

namespace gsknn {

namespace {

Status fail(Status s, std::string* msg, const std::string& text) {
  if (msg != nullptr) *msg = text;
  return s;
}

/// Bounds-check an index list against the table size.
Status check_indices(std::span<const int> idx, int limit, const char* what,
                     std::string* msg) {
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const int v = idx[i];
    if (v < 0 || v >= limit) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "gsknn: %s[%zu] = %d out of range [0, %d)", what, i, v,
                    limit);
      return fail(Status::kBadIndex, msg, buf);
    }
  }
  return Status::kOk;
}

/// Finite-coordinate scan of the referenced points (opt-in; cfg.validate).
template <typename T>
Status check_finite(const PointTableT<T>& X, std::span<const int> idx,
                    const char* what, std::string* msg) {
  const int d = X.dim();
  const T* x = X.data();
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const T* p = x + static_cast<long>(idx[i]) * d;
    for (int j = 0; j < d; ++j) {
      if (!std::isfinite(p[j])) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "gsknn: %s point %d has a non-finite coordinate (dim %d)",
                      what, idx[i], j);
        return fail(Status::kNonFinite, msg, buf);
      }
    }
  }
  return Status::kOk;
}

}  // namespace

template <typename T>
Status validate_knn_args(const PointTableT<T>& X, std::span<const int> qidx,
                         std::span<const int> ridx,
                         const NeighborTableT<T>& result, const KnnConfig& cfg,
                         std::span<const int> result_rows, std::string* msg) {
  const int m = static_cast<int>(qidx.size());

  if (cfg.norm == Norm::kLp && !(std::isfinite(cfg.p) && cfg.p > 0.0)) {
    return fail(Status::kBadConfig, msg,
                "gsknn: lp norm requires a finite exponent p > 0");
  }
  if (cfg.threads < 0) {
    return fail(Status::kBadConfig, msg, "gsknn: threads must be >= 0");
  }
  if (cfg.blocking.has_value()) {
    if (!cfg.blocking->valid()) {
      return fail(Status::kBadConfig, msg,
                  "gsknn: invalid blocking parameters");
    }
    // Explicit blocking must match an available micro-kernel's register
    // tile. Checked here (not just in the driver) so the error surfaces at
    // validation time — before the batch/parallel_refs drivers enter their
    // OpenMP regions, where a throw would terminate the process.
    const SimdLevel best = cpu_features().best_level();
    bool matched = false;
    for (SimdLevel lv :
         {best, SimdLevel::kAvx2, SimdLevel::kScalar}) {
      if (lv > best) continue;
      const core::MicroKernelT<T> mk = core::select_micro<T>(lv, cfg.norm);
      if (mk.fn != nullptr && mk.mr == cfg.blocking->mr &&
          mk.nr == cfg.blocking->nr) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      return fail(
          Status::kBadConfig, msg,
          "gsknn: blocking mr/nr do not match any available micro-kernel");
    }
  }

  if (!result_rows.empty()) {
    if (static_cast<int>(result_rows.size()) != m) {
      return fail(Status::kInvalidArgument, msg,
                  "gsknn: result_rows size must equal qidx size");
    }
    Status s = check_indices(result_rows, result.rows(), "result_rows", msg);
    if (s != Status::kOk) return s;
    // Duplicate result rows would race (several queries sifting one heap)
    // and silently merge neighbor lists; reject them up front. O(m log m)
    // on a copy — small next to the kernel, even per tree leaf.
    std::vector<int> sorted(result_rows.begin(), result_rows.end());
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return fail(Status::kInvalidArgument, msg,
                  "gsknn: result_rows contains duplicate rows");
    }
  } else if (result.rows() < m) {
    return fail(Status::kInvalidArgument, msg,
                "gsknn: result table has fewer rows than queries");
  }

  Status s = check_indices(qidx, X.size(), "qidx", msg);
  if (s != Status::kOk) return s;
  s = check_indices(ridx, X.size(), "ridx", msg);
  if (s != Status::kOk) return s;

  if (cfg.validate) {
    s = check_finite(X, qidx, "query", msg);
    if (s != Status::kOk) return s;
    s = check_finite(X, ridx, "reference", msg);
    if (s != Status::kOk) return s;
  }
  return Status::kOk;
}

template <typename T>
void check_knn_args(const PointTableT<T>& X, std::span<const int> qidx,
                    std::span<const int> ridx, const NeighborTableT<T>& result,
                    const KnnConfig& cfg, std::span<const int> result_rows) {
  std::string msg;
  const Status s = validate_knn_args(X, qidx, ridx, result, cfg, result_rows,
                                     &msg);
  if (s != Status::kOk) throw StatusError(s, msg);
}

template Status validate_knn_args<double>(const PointTable&,
                                          std::span<const int>,
                                          std::span<const int>,
                                          const NeighborTable&,
                                          const KnnConfig&,
                                          std::span<const int>, std::string*);
template Status validate_knn_args<float>(const PointTableF&,
                                         std::span<const int>,
                                         std::span<const int>,
                                         const NeighborTableF&,
                                         const KnnConfig&,
                                         std::span<const int>, std::string*);
template void check_knn_args<double>(const PointTable&, std::span<const int>,
                                     std::span<const int>,
                                     const NeighborTable&, const KnnConfig&,
                                     std::span<const int>);
template void check_knn_args<float>(const PointTableF&, std::span<const int>,
                                    std::span<const int>,
                                    const NeighborTableF&, const KnnConfig&,
                                    std::span<const int>);

}  // namespace gsknn
