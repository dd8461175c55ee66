// Internal: what the capi translation units (src/core/capi.cpp,
// src/serving/capi.cpp) share — the C-handle struct layouts and the one
// Status -> C-code map. The public header only forward declares the
// handles; every TU that unwraps one must see one identical definition,
// which is this file.
#pragma once

#include "gsknn/capi.h"
#include "gsknn/core/knn.hpp"

struct gsknn_table {
  gsknn::PointTable table;
};

struct gsknn_result {
  gsknn::NeighborTable table;
};

namespace gsknn::capi {

/// A C status code is the negated gsknn::Status value; the asserts below
/// pin every code of capi.h to its Status.
constexpr int status_code(Status s) { return -static_cast<int>(s); }

static_assert(status_code(Status::kOk) == GSKNN_OK);
static_assert(status_code(Status::kInvalidArgument) ==
              GSKNN_ERR_INVALID_ARGUMENT);
static_assert(status_code(Status::kBadIndex) == GSKNN_ERR_BAD_INDEX);
static_assert(status_code(Status::kBadConfig) == GSKNN_ERR_BAD_CONFIG);
static_assert(status_code(Status::kNonFinite) == GSKNN_ERR_NONFINITE);
static_assert(status_code(Status::kUnsupported) == GSKNN_ERR_UNSUPPORTED);
static_assert(status_code(Status::kInternal) == GSKNN_ERR_INTERNAL);
static_assert(status_code(Status::kResourceExhausted) ==
              GSKNN_ERR_RESOURCE_EXHAUSTED);
static_assert(status_code(Status::kDeadlineExceeded) ==
              GSKNN_ERR_DEADLINE_EXCEEDED);
static_assert(status_code(Status::kCancelled) == GSKNN_ERR_CANCELLED);
static_assert(status_code(Status::kStale) == GSKNN_ERR_STALE);
static_assert(kStatusCount == 11, "a new Status needs a capi.h code");

}  // namespace gsknn::capi
