// Analytical performance model for the kNN kernel (paper §2.6, Table 4).
//
// Predicts execution time T = Tf + To + Tm for three methods — GSKNN Var#1,
// GSKNN Var#6 and the GEMM-based Algorithm 2.1 — from four machine
// parameters:
//   peak_flops : floating point operations per second          (paper τf)
//   tau_b      : seconds per contiguously-moved double          (paper τb)
//   tau_l      : seconds per random (latency-bound) access      (paper τℓ)
//   eps        : expected fraction of the worst-case heap work  (paper ε)
//
// Uses (all from the paper):
//   * explain measured GFLOPS curves (Fig. 4);
//   * predict the Var#1 ↔ Var#6 switch threshold in k (Fig. 5);
//   * estimate per-kernel runtimes for the greedy task scheduler (§2.5).
#pragma once

#include <span>
#include <vector>

#include "gsknn/common/arch.hpp"

namespace gsknn {
enum class Variant;  // gsknn/core/knn.hpp
}

namespace gsknn::model {

struct MachineParams {
  double peak_flops = 8.0 * 3.54e9;  ///< flops/s (paper's 1-core Ivy Bridge)
  double tau_b = 2.2e-9;             ///< s per double, streaming
  double tau_l = 13.91e-9;           ///< s per random access
  double eps = 0.5;                  ///< expected heap-cost factor ∈ [0,1]
};

/// The paper's published Ivy Bridge constants (Fig. 4 caption), for
/// replaying the paper's own predictions.
MachineParams paper_params_1core();
MachineParams paper_params_10core();

/// The parameters every library consumer prices with (kernel profiles,
/// the drift samples, the batch scheduler, server admission, the diag
/// bundle, autotune): the paper's 1-core constants, MachineParams{}.
const MachineParams& machine();

/// Streaming-bandwidth peak implied by tau_b, in GB/s (8 bytes per double
/// every tau_b seconds). The roofline reporter uses this as the memory
/// ceiling when joining measured traffic against the model.
double peak_stream_gbs(const MachineParams& mp);

/// Measure this machine's parameters with short micro-benchmarks:
/// an FMA-saturating loop (peak_flops), a streaming reduction (tau_b) and a
/// dependent pointer chase (tau_l). `threads` scales peak_flops only.
MachineParams calibrate(int threads = 1);

struct ProblemShape {
  int m = 0;  ///< queries
  int n = 0;  ///< references
  int d = 0;  ///< dimension
  int k = 0;  ///< neighbors
};

enum class Method {
  kVar1,          ///< fused, selection in the micro-kernel
  kVar6,          ///< fused packing, selection after the full distance matrix
  kGemmBaseline,  ///< Algorithm 2.1: collect Q/R + GEMM + norms + selection
};

/// The method that prices a resolved selection variant: Var#1 selects
/// inside the micro-kernel; Var#5 selects finished rows and is priced as
/// the paper's Var#6.
Method method_for(Variant v);

/// Floating-point time Tf: (2d + 3)·m·n flops (rank-d update + norm finish).
double time_flops(const ProblemShape& s, const MachineParams& mp);

/// Non-flop instruction time To of the heap selection: 24 instruction-
/// equivalents per candidate compare and per expected heap adjustment
/// (paper eq. 3).
double time_other(const ProblemShape& s, const MachineParams& mp);

/// Slow-memory time Tm for `method` (paper Tm^Var#1, eqs. 4 and 5).
double time_memory(Method method, const ProblemShape& s,
                   const MachineParams& mp, const BlockingParams& bp);

/// Total predicted time T = Tf + To + Tm.
double predicted_time(Method method, const ProblemShape& s,
                      const MachineParams& mp, const BlockingParams& bp);

/// Normalized efficiency the paper plots: (2d+3)·m·n / T / 1e9 GFLOPS.
double predicted_gflops(Method method, const ProblemShape& s,
                        const MachineParams& mp, const BlockingParams& bp);

/// The faster of Var#1 / Var#6 under the model (the paper's "two dimensional
/// threshold on the (d, k) space").
Method choose_variant(const ProblemShape& s, const MachineParams& mp,
                      const BlockingParams& bp);

/// Smallest k ∈ [1, k_max] for which Var#6 is predicted to beat Var#1 at
/// this (m, n, d); returns k_max + 1 when Var#1 always wins.
int variant_threshold_k(int m, int n, int d, int k_max,
                        const MachineParams& mp, const BlockingParams& bp);

// ---------------------------------------------------------------------------
// Greedy first-termination list scheduling (§2.5): longest estimated task
// first, each assigned to the currently least-loaded processor. Optimal-ish
// static schedule for independent kNN kernels (Graham's LPT bound).
// ---------------------------------------------------------------------------

/// Returns assignment[i] = processor of task i, for p processors.
std::vector<int> schedule_lpt(std::span<const double> est_seconds, int p);

/// Maximum per-processor load of a given assignment.
double makespan(std::span<const double> est_seconds,
                std::span<const int> assignment, int p);

/// Admission order for a serving queue: indices sorted deadline-first
/// (earliest deadline wins; +inf or non-finite = no deadline), then by the
/// model estimate ascending — the greedy first-termination order, which
/// maximizes requests retired per unit time while never starving a budgeted
/// request behind an unbudgeted one. Ties fall back to submission (index)
/// order. `deadline_seconds` may be empty (no entry has a deadline).
std::vector<int> order_first_termination(
    std::span<const double> est_seconds,
    std::span<const double> deadline_seconds);

}  // namespace gsknn::model
