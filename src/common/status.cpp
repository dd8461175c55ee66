// The one Status -> name table (see include/gsknn/common/status.hpp).
#include "gsknn/common/status.hpp"

namespace gsknn {

namespace {

const char* const kStatusNames[kStatusCount] = {
    "ok",          "invalid_argument",   "bad_index",
    "bad_config",  "non_finite",         "unsupported",
    "internal",    "resource_exhausted", "deadline_exceeded",
    "cancelled",   "stale",
};

}  // namespace

const char* status_name(Status s) {
  const int i = static_cast<int>(s);
  return (i >= 0 && i < kStatusCount) ? kStatusNames[i] : "unknown";
}

}  // namespace gsknn
