#pragma once
/// \file spgemm.hpp
/// \brief Sparse general matrix-matrix multiply and related matrix algebra.
///
/// SpGEMM backs two parts of the reproduction: the Galerkin triple product
/// R·A·P in the smoothed-aggregation AMG substrate (Table V) and the
/// Tuminaro–Tong "MIS-1 of G²" aggregation baseline from the related work.
/// Rows are computed independently with a per-thread dense accumulator and
/// emitted sorted, so the product is deterministic for any thread count.
///
/// The product is *single-pass*: each row's inner product runs exactly
/// once, into a per-chunk arena, and a scatter pass copies arenas into the
/// final CRS arrays after the row-length scan (no symbolic/numeric
/// re-traversal). Work is split across threads in equal-*flop* chunks
/// under `Schedule::EdgeBalanced` (see `parallel/balanced_for.hpp`), so a
/// hub row of a skewed input no longer serializes a whole thread's sweep,
/// and the flop total lets a short but heavy product (a few hundred dense
/// coarse rows) fork under every schedule.
///
/// Each row takes one of two accumulation paths, chosen from its flop
/// count Σ_{k∈A(i,:)} deg_B(k) alone:
///  - *stamp* (flops < `b.num_cols`): a stamp-cleared accumulator whose
///    first product per column assigns and later ones add; the touched
///    columns are sorted.
///  - *dense* (flops ≥ `b.num_cols`, so the O(nc) accumulator costs no more
///    than the flops): runs of consecutive dense rows form blocks of
///    accumulators totalling about 1 MB. Every accumulator is seeded with
///    −0.0, the exact IEEE additive identity (−0.0 + x == x bitwise for
///    every x), so adding every product reproduces the stamp path's
///    assign-then-add bit for bit. The block's A entries are bucketed by
///    k, and each row of B is streamed once per block into every block row
///    that references it, in ascending k — each output still sums its
///    products in its row's own order. Rows are emitted by scanning the
///    columns in order, with no sort.
///
/// Contract: for any thread count, schedule or path, `spgemm` is bitwise
/// identical to the textbook row-by-row product (first product assigns,
/// later ones add in A-then-B entry order), signed zeros included: a
/// column whose products are all −0.0 is −0.0, and an exact cancellation
/// stays a structural entry. `spgemm_numeric` replays the same values.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/crs.hpp"

namespace parmis::graph {

/// C = A * B. Requires a.num_cols == b.num_rows. Output rows sorted.
[[nodiscard]] CrsMatrix spgemm(const CrsMatrix& a, const CrsMatrix& b);

/// Value-only replay of C = A * B into an existing product: `c` must hold
/// the exact sparsity `spgemm(a, b)` would produce (same row_map/entries);
/// only `c.values` is rewritten, in the same per-row accumulation order as
/// `spgemm` from the same −0.0 seed, so the values are bit-identical to a
/// fresh product, signs of zero included. Performs
/// zero heap allocations on warm calls — the kernel behind warm multilevel
/// (Galerkin) rebuilds when matrix values change but structure is fixed.
void spgemm_numeric(const CrsMatrix& a, const CrsMatrix& b, CrsMatrix& c);

/// Pre-size the calling thread's SpGEMM accumulator for products with up
/// to `ncols` output columns. The zero-allocation guarantee of
/// `spgemm_numeric` is per *thread*: the dense accumulator is
/// thread_local, so the first product a fresh thread ever runs allocates
/// it. Callers that replay into a guarded warm path from a thread that
/// never ran a cold build (e.g. a serving runtime's customize thread)
/// call this first; on an already-warm thread it is a no-op.
void spgemm_warm_thread(ordinal_t ncols);

/// Structure-only product: pattern of A * B (no values).
[[nodiscard]] CrsGraph spgemm_symbolic(GraphView a, GraphView b);

/// C = alpha * A + beta * B (same shape; sorted-row merge). Entries whose
/// sum is exactly zero are kept, preserving the structural union.
[[nodiscard]] CrsMatrix matrix_add(scalar_t alpha, const CrsMatrix& a, scalar_t beta,
                                   const CrsMatrix& b);

/// Value-only replay of C = alpha * A + beta * B: `c` must hold the exact
/// sparsity `matrix_add(alpha, a, beta, b)` would produce; only `c.values`
/// is rewritten. Zero heap allocations.
void matrix_add_numeric(scalar_t alpha, const CrsMatrix& a, scalar_t beta, const CrsMatrix& b,
                        CrsMatrix& c);

/// Transpose with values (used for R = Pᵀ in AMG). Output rows sorted.
[[nodiscard]] CrsMatrix transpose_matrix(const CrsMatrix& a);

/// Entry permutation of the transpose: entry `j` of `a` lands at entry
/// `perm[j]` of `transpose_matrix(a)`. Lets a caller replay a transpose's
/// values without recomputing its structure.
[[nodiscard]] std::vector<offset_t> transpose_permutation(const CrsMatrix& a);

/// Value-only transpose replay through a permutation from
/// `transpose_permutation`: `t.values[perm[j]] = a.values[j]`. `t` must be
/// the structural transpose of `a`. Zero heap allocations.
void transpose_numeric(const CrsMatrix& a, std::span<const offset_t> perm, CrsMatrix& t);

/// Diagonal of a square matrix; zero where a row has no diagonal entry.
[[nodiscard]] std::vector<scalar_t> extract_diagonal(const CrsMatrix& a);

/// `extract_diagonal` into a caller-owned buffer of size `num_rows` (the
/// zero-allocation variant warm multilevel rebuilds use).
void extract_diagonal(const CrsMatrix& a, std::span<scalar_t> d);

/// Instrumentation: number of row inner-products computed by `spgemm` /
/// `spgemm_symbolic` since the last reset (process-wide, relaxed atomic).
/// A single-pass product traverses each output row exactly once, so after
/// one `spgemm(a, b)` the counter advances by exactly `a.num_rows` — the
/// regression guard against reintroducing the two-pass traversal.
[[nodiscard]] std::int64_t spgemm_rows_traversed();

/// Reset the `spgemm_rows_traversed` counter to zero.
void spgemm_reset_stats();

}  // namespace parmis::graph
