// The outcome vocabulary every layer reports in: gsknn::Status, its one
// name table (status_name) and the StatusError exception that carries a
// Status through the throwing entry points. It lives in the common layer so
// the metrics registry and the flight recorder name statuses from the same
// table the kernel and the C API do (docs/CONTRACT.md has the full table
// and the C-API mapping in include/gsknn/capi.h).
#pragma once

#include <stdexcept>
#include <string>

namespace gsknn {

/// Outcome of every public entry point. The `_status` forms return it and
/// never throw; the throwing forms raise StatusError for every non-kOk
/// outcome; the C API returns the matching negative gsknn_status code.
enum class Status {
  kOk = 0,
  kInvalidArgument,  ///< null/size mismatches, duplicate result rows
  kBadIndex,         ///< qidx/ridx/result_rows entry out of range
  kBadConfig,        ///< invalid KnnConfig (ℓp exponent, threads, blocking)
  kNonFinite,        ///< non-finite coordinates (opt-in KnnConfig::validate)
  kUnsupported,      ///< entry point does not support the requested mode
  kInternal,         ///< an unexpected exception inside an entry point
  // Resource-governance outcomes (docs/ROBUSTNESS.md). Unlike the argument
  // errors above, the latter two are *partial-result* statuses: the result
  // table holds valid heaps, with the rows that missed candidates flagged
  // via NeighborTable::row_complete().
  kResourceExhausted,  ///< workspace cap unreachable or allocation failed;
                       ///< the result table is untouched
  kDeadlineExceeded,   ///< KnnConfig::deadline passed at a block boundary
  kCancelled,          ///< KnnConfig::cancel token fired at a block boundary
  kStale,              ///< PackedRefs epoch mismatch: the reference set was
                       ///< updated after the caller captured its epoch; the
                       ///< result table is untouched (gsknn/core/packed_refs.hpp)
};

/// Number of Status values (the metrics status axis is this wide).
inline constexpr int kStatusCount = static_cast<int>(Status::kStale) + 1;

/// Stable lowercase name of a status ("ok", "invalid_argument", ...);
/// "unknown" for a value outside the enum.
const char* status_name(Status s);

/// Exception carrying a Status. Derives from std::invalid_argument so code
/// written against the pre-Status throwing contract keeps catching it.
class StatusError : public std::invalid_argument {
 public:
  StatusError(Status s, const std::string& what)
      : std::invalid_argument(what), status_(s) {}
  Status status() const { return status_; }

 private:
  Status status_;
};

}  // namespace gsknn
