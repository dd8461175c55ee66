// Micro-benchmark: the async serving runtime (gsknn/serving/server.hpp).
// Open-loop Poisson arrivals over a warm PackedRefs set, swept across
// offered rates: as the queue backs up, admission coalesces compatible
// tickets into fused m-row warm kernel calls, so throughput holds while
// the fusion ratio climbs. Per-lane p50/p99 come from the metrics registry
// (queueing included — the latency a caller actually observes).
//
// Two hard assertions, not timing claims: the warm fused path moves zero
// packed reference bytes (bytes_packed frozen across the whole sweep), and
// the saturated regime fuses (ratio > 1). Either failing exits nonzero.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/serving/server.hpp"
#include "gsknn/data/generators.hpp"

using namespace gsknn;
using namespace gsknn::bench;

int main() {
  print_header("micro_serving — open-loop serving: fusion ratio and per-lane tails");
  const int d = 32;
  const int n = scaled(16384, 4096);
  const int k = 16;
  const int queries = scaled(2048, 256);
  const int nq = 256;  // query pool (tail of the table, never referenced)
  std::printf("# n = %d refs (d = %d), k = %d, %d arrivals per rate, "
              "half bulk\n", n - nq, d, k, queries);
  std::printf("%10s | %8s | %7s | %9s | %11s | %11s | %11s\n", "rate/s",
              "done/s", "fusion", "requeues", "inter p99", "bulk p99",
              "pack bytes");

  const PointTable X = make_uniform(d, n, 0x5E2F);
  serving::ServerOptions sopt;
  sopt.workers = 2;
  serving::Server srv(X, sopt);
  if (srv.create_refs("main", iota_ids(n - nq)) != Status::kOk) {
    std::fprintf(stderr, "create_refs failed\n");
    return 1;
  }

  // Prime: one ticket walks every block the fused path will touch, so the
  // sweep below runs entirely warm.
  {
    const serving::TicketId t = srv.submit("main", n - 1, k);
    if (t == 0 || srv.wait(t) != Status::kOk) {
      std::fprintf(stderr, "warmup ticket failed\n");
      return 1;
    }
  }
  const auto primed = srv.refs_stats("main");
  if (!primed.has_value() || primed->bytes_packed == 0) {
    std::fprintf(stderr, "warmup did not pack\n");
    return 1;
  }

  serving::Server::Stats prev = srv.stats();
  double top_ratio = 0.0;
  for (const double rate : {2e3, 2e4, 2e5, 2e6}) {
    metrics::reset();
    std::mt19937_64 rng(0xC0FFEE);
    std::exponential_distribution<double> gap(rate);
    std::uniform_int_distribution<int> qpick(n - nq, n - 1);
    std::vector<serving::TicketId> tickets;
    tickets.reserve(static_cast<std::size_t>(queries));
    WallTimer wt;
    for (int i = 0; i < queries; ++i) {
      serving::SubmitOptions so;
      so.lane = (i % 2) != 0 ? serving::Lane::kBulk
                             : serving::Lane::kInteractive;
      const serving::TicketId t = srv.submit("main", qpick(rng), k, so);
      if (t == 0) {
        std::fprintf(stderr, "submit failed at rate %.0f\n", rate);
        return 1;
      }
      tickets.push_back(t);
      std::this_thread::sleep_for(std::chrono::duration<double>(gap(rng)));
    }
    for (const serving::TicketId t : tickets) {
      if (srv.wait(t) != Status::kOk) {
        std::fprintf(stderr, "ticket failed at rate %.0f\n", rate);
        return 1;
      }
    }
    const double wall = wt.seconds();

    const serving::Server::Stats st = srv.stats();
    const std::uint64_t calls = st.fused_calls - prev.fused_calls;
    const std::uint64_t fused = st.fused_queries - prev.fused_queries;
    const std::uint64_t requeues = st.requeues - prev.requeues;
    prev = st;
    const double ratio =
        calls > 0 ? static_cast<double>(fused) / static_cast<double>(calls)
                  : 0.0;
    top_ratio = ratio > top_ratio ? ratio : top_ratio;

    const metrics::MetricsSnapshot snap = metrics::snapshot();
    const double ip99 = snap.latency_quantile_ns(
                            metrics::EntryPoint::kServeInteractive, 0.99) /
                        1e6;
    const double bp99 =
        snap.latency_quantile_ns(metrics::EntryPoint::kServeBulk, 0.99) / 1e6;
    const auto stats_now = srv.refs_stats("main");
    const std::uint64_t moved =
        stats_now->bytes_packed - primed->bytes_packed;
    std::printf("%10.0f | %8.0f | %6.2fx | %9llu | %9.2fms | %9.2fms | %11llu\n",
                rate, queries / wall, ratio,
                static_cast<unsigned long long>(requeues), ip99, bp99,
                static_cast<unsigned long long>(moved));

    char row[256];
    std::snprintf(row, sizeof(row),
                  "\"rate\":%.0f,\"k\":%d,\"fusion_ratio\":%.3f,"
                  "\"inter_p99_ms\":%.3f,\"bulk_p99_ms\":%.3f,"
                  "\"pack_bytes\":%llu",
                  rate, k, ratio, ip99, bp99,
                  static_cast<unsigned long long>(moved));
    emit_json_row("micro_serving", row);

    // Hard assertion #1: warm fused traffic never re-packs.
    if (moved != 0) {
      std::fprintf(stderr,
                   "FAIL: warm fused path moved %llu packed bytes "
                   "(contract: 0)\n",
                   static_cast<unsigned long long>(moved));
      return 1;
    }
  }

  // Hard assertion #2: the saturated regimes coalesce.
  if (top_ratio <= 1.0) {
    std::fprintf(stderr, "FAIL: no rate achieved fusion ratio > 1 (best %.2f)\n",
                 top_ratio);
    return 1;
  }
  std::printf("# ok: 0 packed bytes across the sweep, peak fusion %.2fx\n",
              top_ratio);
  return 0;
}
