// Thin OpenMP abstraction so every module compiles (and tests pass) with or
// without OpenMP. `threads == 0` everywhere in the public API means "use the
// runtime default". Also home of the thread-slot registry that metrics
// shards and SlotRing's rings (gsknn/common/slot_ring.hpp) are indexed by.
#pragma once

#if defined(GSKNN_HAVE_OPENMP)
#include <omp.h>
#endif

/// One OpenMP directive, e.g. GSKNN_OMP(omp barrier); nothing when OpenMP is
/// off, so every construct then runs on the calling thread alone.
#if defined(GSKNN_HAVE_OPENMP)
#define GSKNN_OMP(directive) _Pragma(#directive)
#else
#define GSKNN_OMP(directive)
#endif

namespace gsknn {

/// Number of threads a parallel region would use for a request of `threads`
/// (0 = runtime default).
inline int resolve_threads(int threads) {
#if defined(GSKNN_HAVE_OPENMP)
  if (threads <= 0) return omp_get_max_threads();
  return threads;
#else
  (void)threads;
  return 1;
#endif
}

/// Actual team size inside a parallel region (1 outside). Can be smaller
/// than the `num_threads` request when nesting or runtime caps shrink the
/// team — schedulers that precomputed a p-way assignment must remap onto
/// this, not assume the request was honored.
inline int team_size() {
#if defined(GSKNN_HAVE_OPENMP)
  return omp_get_num_threads();
#else
  return 1;
#endif
}

/// Calling thread's index inside a parallel region (0 outside).
inline int thread_id() {
#if defined(GSKNN_HAVE_OPENMP)
  return omp_get_thread_num();
#else
  return 0;
#endif
}

inline constexpr int kMaxThreadSlots = 256;

/// The calling thread's slot in [0, kMaxThreadSlots): the lowest free slot,
/// claimed on first use and released at thread exit. -1 while every slot is
/// held by a live thread (the next call retries), and for good after the
/// exit release, so later thread_local destructors never write into a
/// reused slot.
int thread_slot();

/// One past the highest slot ever claimed; readers walk [0, high water).
int thread_slot_high_water();

}  // namespace gsknn
