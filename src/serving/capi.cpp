// C bindings for the serving runtime (gsknn_server_* in gsknn/capi.h).
// Exceptions are caught at the boundary like the core C API; the thread-
// local last-error string lives in src/core/capi.cpp, so this TU leans on
// status codes alone (the one Status -> code map, capi_handles.hpp).
#include <cstdint>
#include <exception>
#include <new>
#include <span>

#include "gsknn/capi.h"
#include "gsknn/serving/server.hpp"

#include "../core/capi_handles.hpp"

namespace {

using gsknn::capi::status_code;

bool parse_norm(int norm, gsknn::Norm& out) {
  switch (norm) {
    case GSKNN_NORM_L2SQ:
      out = gsknn::Norm::kL2Sq;
      return true;
    case GSKNN_NORM_L1:
      out = gsknn::Norm::kL1;
      return true;
    case GSKNN_NORM_LINF:
      out = gsknn::Norm::kLInf;
      return true;
    case GSKNN_NORM_LP:
      out = gsknn::Norm::kLp;
      return true;
    case GSKNN_NORM_COSINE:
      out = gsknn::Norm::kCosine;
      return true;
    default:
      return false;
  }
}

}  // namespace

struct gsknn_server {
  gsknn::serving::Server server;
  gsknn_server(const gsknn::PointTable& X,
               const gsknn::serving::ServerOptions& opt)
      : server(X, opt) {}
};

extern "C" {

gsknn_server* gsknn_server_create(const gsknn_table* table, int norm,
                                  int workers) {
  if (table == nullptr) return nullptr;
  gsknn::serving::ServerOptions opt;
  if (!parse_norm(norm, opt.norm)) return nullptr;
  opt.workers = workers < 1 ? 1 : workers;
  try {
    return new gsknn_server(table->table, opt);
  } catch (const std::exception&) {
    return nullptr;
  }
}

void gsknn_server_destroy(gsknn_server* s) { delete s; }

static int refs_update(gsknn_server* s, const char* name, const int* ids,
                       int count,
                       gsknn::Status (gsknn::serving::Server::*fn)(
                           std::string_view, std::span<const int>)) {
  if (s == nullptr || name == nullptr || count < 0 ||
      (count > 0 && ids == nullptr)) {
    return GSKNN_ERR_INVALID_ARGUMENT;
  }
  try {
    return status_code((s->server.*fn)(
        name, std::span<const int>(ids, static_cast<std::size_t>(count))));
  } catch (const std::bad_alloc&) {
    return GSKNN_ERR_RESOURCE_EXHAUSTED;
  } catch (const std::exception&) {
    return GSKNN_ERR_INTERNAL;
  }
}

int gsknn_server_create_refs(gsknn_server* s, const char* name,
                             const int* ids, int count) {
  return refs_update(s, name, ids, count,
                     &gsknn::serving::Server::create_refs);
}

int gsknn_server_insert_refs(gsknn_server* s, const char* name,
                             const int* ids, int count) {
  return refs_update(s, name, ids, count,
                     &gsknn::serving::Server::insert_refs);
}

int gsknn_server_erase_refs(gsknn_server* s, const char* name,
                            const int* ids, int count) {
  return refs_update(s, name, ids, count,
                     &gsknn::serving::Server::erase_refs);
}

int gsknn_server_drop_refs(gsknn_server* s, const char* name) {
  if (s == nullptr || name == nullptr) return GSKNN_ERR_INVALID_ARGUMENT;
  return status_code(s->server.drop_refs(name));
}

long long gsknn_server_submit_ex(gsknn_server* s, const char* refs,
                                 int query, int k, int lane,
                                 double budget_ms, double* retry_after_ms) {
  if (retry_after_ms != nullptr) *retry_after_ms = 0.0;
  if (s == nullptr || refs == nullptr) return GSKNN_ERR_INVALID_ARGUMENT;
  if (lane != GSKNN_LANE_INTERACTIVE && lane != GSKNN_LANE_BULK) {
    return GSKNN_ERR_INVALID_ARGUMENT;
  }
  gsknn::serving::SubmitOptions opt;
  opt.lane = static_cast<gsknn::serving::Lane>(lane);
  if (budget_ms > 0.0) {
    opt.budget = std::chrono::nanoseconds(
        static_cast<std::int64_t>(budget_ms * 1e6));
  }
  try {
    const gsknn::serving::SubmitResult r =
        s->server.submit_ex(refs, query, k, opt);
    if (r.ticket == 0) {
      if (retry_after_ms != nullptr) {
        *retry_after_ms = static_cast<double>(r.retry_after.count()) * 1e-6;
      }
      return status_code(r.status);
    }
    return static_cast<long long>(r.ticket);
  } catch (const std::bad_alloc&) {
    return GSKNN_ERR_RESOURCE_EXHAUSTED;
  } catch (const std::exception&) {
    return GSKNN_ERR_INTERNAL;
  }
}

long long gsknn_server_submit(gsknn_server* s, const char* refs, int query,
                              int k, int lane, double budget_ms) {
  return gsknn_server_submit_ex(s, refs, query, k, lane, budget_ms, nullptr);
}

int gsknn_server_poll(gsknn_server* s, long long ticket) {
  if (s == nullptr || ticket <= 0) return GSKNN_ERR_INVALID_ARGUMENT;
  return s->server.poll(static_cast<gsknn::serving::TicketId>(ticket)) ? 1
                                                                       : 0;
}

int gsknn_server_wait(gsknn_server* s, long long ticket) {
  if (s == nullptr || ticket <= 0) return GSKNN_ERR_INVALID_ARGUMENT;
  return status_code(
      s->server.wait(static_cast<gsknn::serving::TicketId>(ticket)));
}

int gsknn_server_cancel(gsknn_server* s, long long ticket) {
  if (s == nullptr || ticket <= 0) return GSKNN_ERR_INVALID_ARGUMENT;
  return s->server.cancel(static_cast<gsknn::serving::TicketId>(ticket)) ? 1
                                                                         : 0;
}

int gsknn_server_result(gsknn_server* s, long long ticket, int* ids,
                        double* dists, int cap) {
  if (s == nullptr || ticket <= 0 || cap < 0 ||
      (cap > 0 && (ids == nullptr || dists == nullptr))) {
    return GSKNN_ERR_INVALID_ARGUMENT;
  }
  const int n = s->server.result(
      static_cast<gsknn::serving::TicketId>(ticket),
      std::span<int>(ids, static_cast<std::size_t>(cap)),
      std::span<double>(dists, static_cast<std::size_t>(cap)));
  if (n < 0) {
    gsknn::Status st = gsknn::Status::kOk;
    if (!s->server.poll(static_cast<gsknn::serving::TicketId>(ticket), &st)) {
      return GSKNN_ERR_INVALID_ARGUMENT;  // still pending
    }
    return st == gsknn::Status::kOk ? GSKNN_ERR_INTERNAL : status_code(st);
  }
  return n;
}

int gsknn_server_health(const gsknn_server* s) {
  if (s == nullptr) return GSKNN_ERR_INVALID_ARGUMENT;
  return static_cast<int>(s->server.health());
}

}  // extern "C"
