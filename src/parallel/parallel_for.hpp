#pragma once
/// \file parallel_for.hpp
/// \brief Data-parallel loop over an index range (Kokkos `parallel_for`
/// analogue).

#include <cstdint>
#include <utility>

#include "parallel/execution.hpp"

namespace parmis::par {

/// Minimum trip count before the OpenMP backend spawns a parallel region.
/// Short loops run serially, unless a cost-aware loop (`balanced_chunks`,
/// `balanced_for`) is told its iterations are heavy: see
/// `parallel_work_grain`. Neither threshold ever changes results because
/// every functor used in this library is race-free by construction.
inline constexpr std::int64_t parallel_for_grain = 512;

/// Total cost (in the units of a cost prefix, e.g. nonzeros or flops) at
/// which a cost-aware loop forks even when it has fewer than
/// `parallel_for_grain` iterations: a few hundred rows of a dense coarse
/// operator carry millions of flops.
inline constexpr std::int64_t parallel_work_grain = std::int64_t{1} << 16;

/// Execute `f(i)` for every `i` in `[0, n)` with an explicit parallel
/// threshold: loops shorter than `grain` run serially. Use a small grain
/// when each iteration is heavyweight (e.g. one whole cluster per
/// iteration in cluster Gauss-Seidel).
///
/// Iterations must be independent (no iteration may observe another's
/// writes). Scheduling is static so the work partition is reproducible,
/// though correctness never depends on it.
template <typename Index, typename F>
void parallel_for_grained(Index n, std::int64_t grain, F&& f) {
#ifdef PARMIS_HAVE_OPENMP
  if (Execution::backend() == Backend::OpenMP && static_cast<std::int64_t>(n) >= grain) {
    const int nt = Execution::num_threads();
#pragma omp parallel for schedule(static) num_threads(nt)
    for (Index i = 0; i < n; ++i) {
      f(i);
    }
    return;
  }
#endif
  for (Index i = 0; i < n; ++i) {
    f(i);
  }
}

/// `parallel_for_grained` with the default grain for light-weight bodies.
template <typename Index, typename F>
void parallel_for(Index n, F&& f) {
  parallel_for_grained(n, parallel_for_grain, std::forward<F>(f));
}

/// Execute `f(i)` for every `i` in `[begin, end)`.
template <typename Index, typename F>
void parallel_for_range(Index begin, Index end, F&& f) {
  if (end <= begin) return;
  parallel_for(end - begin, [&, begin](Index i) { f(static_cast<Index>(begin + i)); });
}

}  // namespace parmis::par
