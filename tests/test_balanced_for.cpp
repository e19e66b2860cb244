/// \file test_balanced_for.cpp
/// \brief Tests for the cost-aware scheduling layer: chunk-boundary
/// properties of `balanced_chunk_bound`, exactly-once coverage of
/// `balanced_for` under every schedule, the balanced reductions, the
/// single-pass SpGEMM (bitwise equivalence of its stamp and dense-row
/// paths against the historical two-pass reference plus the
/// traversal-counter regression guard), and the parallel transpose.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/mis2.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/rgg.hpp"
#include "graph/spgemm.hpp"
#include "graph/spmv.hpp"
#include "multilevel/builder.hpp"
#include "multilevel/hierarchy.hpp"
#include "parallel/balanced_for.hpp"
#include "parallel/context.hpp"
#include "parallel/execution.hpp"
#include "random/hash.hpp"
#include "test_utils.hpp"

#ifdef PARMIS_HAVE_OPENMP
#include <omp.h>
#endif

namespace parmis {
namespace {

using par::Backend;
using par::Execution;
using par::Schedule;
using par::ScopedExecution;

/// Prefix-sum a cost-per-index vector into the (n+1)-entry prefix array
/// balanced_chunk_bound consumes.
std::vector<offset_t> prefix_of(const std::vector<offset_t>& costs) {
  std::vector<offset_t> p(costs.size() + 1, 0);
  std::partial_sum(costs.begin(), costs.end(), p.begin() + 1);
  return p;
}

/// All boundaries of the nchunks-way partition, [b_0 .. b_nchunks].
std::vector<ordinal_t> bounds_of(const std::vector<offset_t>& prefix, int nchunks) {
  const ordinal_t n = static_cast<ordinal_t>(prefix.size() - 1);
  std::vector<ordinal_t> b;
  for (int t = 0; t <= nchunks; ++t) {
    b.push_back(par::balanced_chunk_bound(n, prefix.data(), nchunks, t));
  }
  return b;
}

/// Every partition must be a contiguous, ascending cover of [0, n).
void expect_valid_partition(const std::vector<ordinal_t>& b, ordinal_t n) {
  ASSERT_GE(b.size(), 2u);
  EXPECT_EQ(b.front(), 0);
  EXPECT_EQ(b.back(), n);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LE(b[i - 1], b[i]) << i;
}

TEST(BalancedChunkBound, AllEqualCostsMatchesUniformSplit) {
  const std::vector<offset_t> prefix = prefix_of(std::vector<offset_t>(100, 5));
  const std::vector<ordinal_t> b = bounds_of(prefix, 4);
  expect_valid_partition(b, 100);
  EXPECT_EQ(b, (std::vector<ordinal_t>{0, 25, 50, 75, 100}));
}

TEST(BalancedChunkBound, OneGiantRowEndsItsChunk) {
  // Row 10 carries ~all the cost. Its chunk must close immediately after
  // it — the cheap tail [11, 40) must not pile onto the hub's chunk.
  std::vector<offset_t> costs(40, 1);
  costs[10] = 10000;
  const std::vector<offset_t> prefix = prefix_of(costs);
  const std::vector<ordinal_t> b = bounds_of(prefix, 4);
  expect_valid_partition(b, 40);
  int owner = -1;
  for (int c = 0; c < 4; ++c) {
    if (b[c] <= 10 && 10 < b[c + 1]) owner = c;
  }
  ASSERT_NE(owner, -1);
  EXPECT_EQ(b[owner + 1], 11) << "giant row should end its chunk";
  // Every per-chunk target lands inside the giant row, so it absorbs the
  // middle boundaries: only the first chunk holds it, the last holds the
  // tail.
  EXPECT_EQ(b, (std::vector<ordinal_t>{0, 11, 11, 11, 40}));
}

TEST(BalancedChunkBound, EmptyRowsAttachRight) {
  // Zero-cost rows between two heavy rows go with the chunk that starts at
  // the next costly row; trailing empties still reach the last chunk.
  std::vector<offset_t> costs{8, 0, 0, 0, 8, 0, 0};
  const std::vector<offset_t> prefix = prefix_of(costs);
  const std::vector<ordinal_t> b = bounds_of(prefix, 2);
  expect_valid_partition(b, 7);
  // Half the total (8) is reached at index 1... the first index whose
  // prefix >= 8 is row 1, so chunk 0 = [0,1), chunk 1 = [1,7).
  EXPECT_EQ(b[1], 1);
}

TEST(BalancedChunkBound, ZeroTotalCostFallsBackToUniform) {
  const std::vector<offset_t> prefix(31, 0);  // 30 rows, all cost 0
  const std::vector<ordinal_t> b = bounds_of(prefix, 3);
  EXPECT_EQ(b, (std::vector<ordinal_t>{0, 10, 20, 30}));
}

TEST(BalancedChunkBound, MoreChunksThanRows) {
  const std::vector<offset_t> prefix = prefix_of({3, 3});
  const std::vector<ordinal_t> b = bounds_of(prefix, 8);
  expect_valid_partition(b, 2);
}

TEST(BalancedChunkBound, BoundariesDependOnlyOnCosts) {
  // Same cost array, any thread configuration: identical boundaries.
  std::vector<offset_t> costs(1000);
  for (std::size_t i = 0; i < costs.size(); ++i) {
    costs[i] = static_cast<offset_t>((i * 37) % 101);
  }
  const std::vector<offset_t> prefix = prefix_of(costs);
  const std::vector<ordinal_t> ref = bounds_of(prefix, 6);
  for (int threads : {1, 2, 5}) {
    ScopedExecution scope(Backend::OpenMP, threads);
    EXPECT_EQ(bounds_of(prefix, 6), ref) << threads;
  }
}

class BalancedForSchedule : public ::testing::TestWithParam<Schedule> {};

TEST_P(BalancedForSchedule, CoversEveryIndexOnce) {
  std::vector<offset_t> costs(20000);
  for (std::size_t i = 0; i < costs.size(); ++i) {
    costs[i] = static_cast<offset_t>(i % 400 == 0 ? 5000 : 1);  // skewed
  }
  const std::vector<offset_t> prefix = prefix_of(costs);
  const std::pair<Backend, int> cfgs[] = {
      {Backend::Serial, 1}, {Backend::OpenMP, 3}, {Backend::OpenMP, 0}};
  for (auto [backend, threads] : cfgs) {
    ScopedExecution scope(backend, threads, GetParam());
    std::vector<int> hits(costs.size(), 0);
    par::balanced_for(static_cast<ordinal_t>(costs.size()), prefix.data(),
                      [&](ordinal_t i) { ++hits[static_cast<std::size_t>(i)]; });
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }))
        << "backend=" << static_cast<int>(backend) << " threads=" << threads;
  }
}

TEST_P(BalancedForSchedule, NullPrefixAndEmptyRange) {
  ScopedExecution scope(Backend::OpenMP, 2, GetParam());
  int count = 0;
  par::balanced_for(ordinal_t{0}, static_cast<const offset_t*>(nullptr),
                    [&](ordinal_t) { ++count; });
  EXPECT_EQ(count, 0);
  std::vector<int> hits(5000, 0);
  par::balanced_for(ordinal_t{5000}, static_cast<const offset_t*>(nullptr),
                    [&](ordinal_t i) { ++hits[static_cast<std::size_t>(i)]; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
}

INSTANTIATE_TEST_SUITE_P(Schedules, BalancedForSchedule,
                         ::testing::Values(Schedule::Static, Schedule::EdgeBalanced,
                                           Schedule::Dynamic));

TEST(BalancedChunks, ChunkIdsWithinCountAndDisjoint) {
  ScopedExecution scope(Backend::OpenMP, 4, Schedule::EdgeBalanced);
  std::vector<offset_t> costs(10000, 1);
  costs[0] = 100000;
  const std::vector<offset_t> prefix = prefix_of(costs);
  const int nc = par::balanced_chunk_count();
  std::vector<int> owner(costs.size(), -1);
  par::balanced_chunks(static_cast<ordinal_t>(costs.size()), prefix.data(),
                       [&](int chunk, ordinal_t lo, ordinal_t hi) {
                         ASSERT_GE(chunk, 0);
                         ASSERT_LT(chunk, nc);
                         for (ordinal_t i = lo; i < hi; ++i) {
                           owner[static_cast<std::size_t>(i)] = chunk;
                         }
                       });
  EXPECT_TRUE(std::all_of(owner.begin(), owner.end(), [](int o) { return o >= 0; }));
  // Ascending chunk ids over ascending indices (contiguous partition).
  EXPECT_TRUE(std::is_sorted(owner.begin(), owner.end()));
}

/// (lo, hi) of every chunk `balanced_chunks` ran, indexed by chunk id;
/// (-1, -1) for a chunk that never ran.
std::vector<std::pair<ordinal_t, ordinal_t>> chunks_run(ordinal_t n, const offset_t* prefix) {
  std::vector<std::pair<ordinal_t, ordinal_t>> run(
      static_cast<std::size_t>(par::balanced_chunk_count()), {-1, -1});
  par::balanced_chunks(n, prefix, [&](int chunk, ordinal_t lo, ordinal_t hi) {
    run[static_cast<std::size_t>(chunk)] = {lo, hi};
  });
  return run;
}

TEST(BalancedChunks, ShortHeavyLoopForksOnCost) {
  // 300 rows (below parallel_for_grain) carrying far more than
  // parallel_work_grain: the shape of a Galerkin product onto a coarse
  // level of a few hundred aggregates. It must split into the same chunks
  // balanced_chunk_bound describes, not run on one thread.
  std::vector<offset_t> costs(300, 1000);
  costs[7] = 50000;
  const std::vector<offset_t> prefix = prefix_of(costs);
  const ordinal_t n = static_cast<ordinal_t>(costs.size());
  static_assert(300 < par::parallel_for_grain);
  ASSERT_GE(prefix.back(), par::parallel_work_grain);

  ScopedExecution scope(Backend::OpenMP, 3, Schedule::EdgeBalanced);
  const int nchunks = par::balanced_chunk_count();
  const std::vector<std::pair<ordinal_t, ordinal_t>> run = chunks_run(n, prefix.data());
  int nonempty = 0;
  for (int c = 0; c < nchunks; ++c) {
    const ordinal_t lo = par::balanced_chunk_bound(n, prefix.data(), nchunks, c);
    const ordinal_t hi = par::balanced_chunk_bound(n, prefix.data(), nchunks, c + 1);
    if (lo < hi) {
      ++nonempty;
      EXPECT_EQ(run[static_cast<std::size_t>(c)], std::make_pair(lo, hi)) << c;
    } else {
      EXPECT_EQ(run[static_cast<std::size_t>(c)], std::make_pair(-1, -1)) << c;
    }
  }
#ifdef PARMIS_HAVE_OPENMP
  EXPECT_EQ(nchunks, 3);
  EXPECT_GT(nonempty, 1);
#endif

  // Static keeps its equal-count boundaries but forks by the same rule.
  ScopedExecution statik(Backend::OpenMP, 3, Schedule::Static);
  const std::vector<std::pair<ordinal_t, ordinal_t>> even = chunks_run(n, prefix.data());
  for (int c = 0; c < nchunks; ++c) {
    EXPECT_EQ(even[static_cast<std::size_t>(c)],
              std::make_pair(static_cast<ordinal_t>(n * c / nchunks),
                             static_cast<ordinal_t>(n * (c + 1) / nchunks)))
        << c;
  }
}

TEST(BalancedChunks, ShortLightLoopStaysOnOneChunk) {
  const std::vector<offset_t> prefix = prefix_of(std::vector<offset_t>(300, 1));
  ASSERT_LT(prefix.back(), par::parallel_work_grain);
  ScopedExecution scope(Backend::OpenMP, 3, Schedule::EdgeBalanced);
  const std::vector<std::pair<ordinal_t, ordinal_t>> run = chunks_run(300, prefix.data());
  EXPECT_EQ(run[0], std::make_pair(0, 300));
  for (std::size_t c = 1; c < run.size(); ++c) EXPECT_EQ(run[c], std::make_pair(-1, -1)) << c;
}

TEST(BalancedChunks, NullPrefixForksOnTripCountOnly) {
  ScopedExecution scope(Backend::OpenMP, 3, Schedule::EdgeBalanced);
  const offset_t* none = nullptr;
  const std::vector<std::pair<ordinal_t, ordinal_t>> shorter = chunks_run(300, none);
  EXPECT_EQ(shorter[0], std::make_pair(0, 300));
  for (std::size_t c = 1; c < shorter.size(); ++c) {
    EXPECT_EQ(shorter[c], std::make_pair(-1, -1)) << c;
  }
  const int nchunks = par::balanced_chunk_count();
  const std::vector<std::pair<ordinal_t, ordinal_t>> longer = chunks_run(6000, none);
  for (int c = 0; c < nchunks; ++c) {
    EXPECT_EQ(longer[static_cast<std::size_t>(c)],
              std::make_pair(static_cast<ordinal_t>(6000 * c / nchunks),
                             static_cast<ordinal_t>(6000 * (c + 1) / nchunks)))
        << c;
  }
}

TEST(BalancedForDynamic, ForksByTheSameCostRule) {
  const std::vector<offset_t> heavy = prefix_of(std::vector<offset_t>(300, 1000));
  const std::vector<offset_t> light = prefix_of(std::vector<offset_t>(300, 1));
  ScopedExecution scope(Backend::OpenMP, 3, Schedule::Dynamic);
  for (const auto* prefix : {&heavy, &light}) {
    std::vector<int> hits(300, 0);
    std::vector<int> in_region(300, 0);
    par::balanced_for(ordinal_t{300}, prefix->data(), [&](ordinal_t i) {
      ++hits[static_cast<std::size_t>(i)];
#ifdef PARMIS_HAVE_OPENMP
      in_region[static_cast<std::size_t>(i)] = omp_in_parallel() ? 1 : 0;
#endif
    });
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
    const bool forked = std::all_of(in_region.begin(), in_region.end(), [](int r) { return r; });
    const bool serial = std::none_of(in_region.begin(), in_region.end(), [](int r) { return r; });
#ifdef PARMIS_HAVE_OPENMP
    EXPECT_TRUE(prefix == &heavy ? forked : serial);
#else
    EXPECT_TRUE(serial);
    (void)forked;
#endif
  }
}

TEST(BalancedReduce, IntegralSumMatchesSerialUnderAllConfigs) {
  std::vector<offset_t> costs(30000);
  for (std::size_t i = 0; i < costs.size(); ++i) {
    costs[i] = static_cast<offset_t>((i * 13) % 97);
  }
  const std::vector<offset_t> prefix = prefix_of(costs);
  const ordinal_t n = static_cast<ordinal_t>(costs.size());
  auto f = [&](ordinal_t i) -> std::int64_t { return costs[static_cast<std::size_t>(i)] * 3 + 1; };
  std::int64_t expected = 0;
  for (ordinal_t i = 0; i < n; ++i) expected += f(i);
  for (Schedule s : {Schedule::Static, Schedule::EdgeBalanced}) {
    const std::pair<Backend, int> cfgs[] = {
        {Backend::Serial, 1}, {Backend::OpenMP, 2}, {Backend::OpenMP, 0}};
    for (auto [backend, threads] : cfgs) {
      ScopedExecution scope(backend, threads, s);
      EXPECT_EQ(par::balanced_reduce_sum<std::int64_t>(n, prefix.data(), f), expected);
      EXPECT_EQ(par::balanced_count_if(n, prefix.data(),
                                       [&](ordinal_t i) { return f(i) % 2 == 0; }),
                std::count_if(costs.begin(), costs.end(),
                              [](offset_t c) { return (c * 3 + 1) % 2 == 0; }));
    }
  }
}

// ---------------------------------------------------------------- SpGEMM

/// The historical two-pass SpGEMM, kept as the equivalence reference: a
/// dense-accumulator pass with identical per-row accumulation order, so
/// the fused kernel must match it bit-for-bit (entries *and* values).
graph::CrsMatrix spgemm_two_pass_reference(const graph::CrsMatrix& a,
                                           const graph::CrsMatrix& b) {
  graph::CrsMatrix c;
  c.num_rows = a.num_rows;
  c.num_cols = b.num_cols;
  c.row_map.assign(static_cast<std::size_t>(a.num_rows) + 1, 0);
  std::vector<scalar_t> acc(static_cast<std::size_t>(b.num_cols), 0);
  std::vector<char> seen(static_cast<std::size_t>(b.num_cols), 0);
  std::vector<ordinal_t> touched;
  auto accumulate_row = [&](ordinal_t i) {
    touched.clear();
    for (offset_t ja = a.row_map[i]; ja < a.row_map[i + 1]; ++ja) {
      const ordinal_t k = a.entries[static_cast<std::size_t>(ja)];
      const scalar_t av = a.values[static_cast<std::size_t>(ja)];
      for (offset_t jb = b.row_map[k]; jb < b.row_map[k + 1]; ++jb) {
        const ordinal_t j = b.entries[static_cast<std::size_t>(jb)];
        const scalar_t bv = b.values[static_cast<std::size_t>(jb)];
        if (!seen[static_cast<std::size_t>(j)]) {
          seen[static_cast<std::size_t>(j)] = 1;
          acc[static_cast<std::size_t>(j)] = av * bv;
          touched.push_back(j);
        } else {
          acc[static_cast<std::size_t>(j)] += av * bv;
        }
      }
    }
  };
  for (ordinal_t i = 0; i < a.num_rows; ++i) {
    accumulate_row(i);
    c.row_map[static_cast<std::size_t>(i) + 1] =
        c.row_map[static_cast<std::size_t>(i)] + static_cast<offset_t>(touched.size());
    for (ordinal_t j : touched) seen[static_cast<std::size_t>(j)] = 0;
  }
  c.entries.resize(static_cast<std::size_t>(c.row_map.back()));
  c.values.resize(static_cast<std::size_t>(c.row_map.back()));
  for (ordinal_t i = 0; i < a.num_rows; ++i) {  // the redundant second pass
    accumulate_row(i);
    std::sort(touched.begin(), touched.end());
    offset_t o = c.row_map[i];
    for (ordinal_t j : touched) {
      c.entries[static_cast<std::size_t>(o)] = j;
      c.values[static_cast<std::size_t>(o)] = acc[static_cast<std::size_t>(j)];
      ++o;
      seen[static_cast<std::size_t>(j)] = 0;
    }
  }
  return c;
}

graph::CrsMatrix skewed_test_matrix() {
  const graph::CrsGraph g = graph::power_law_graph(900, 2.2, 2, 150, 3);
  return graph::laplacian_matrix(g, 0.5);
}

/// Bitwise equality of two products: structure, then every value's bit
/// pattern (so −0.0 ≠ +0.0, unlike `operator==` on doubles).
::testing::AssertionResult same_bits(const graph::CrsMatrix& c, const graph::CrsMatrix& ref) {
  if (c.num_rows != ref.num_rows || c.num_cols != ref.num_cols) {
    return ::testing::AssertionFailure() << "shapes differ";
  }
  if (c.row_map != ref.row_map) return ::testing::AssertionFailure() << "row_map differs";
  if (c.entries != ref.entries) return ::testing::AssertionFailure() << "entries differ";
  if (c.values.size() != ref.values.size()) {
    return ::testing::AssertionFailure() << "value counts differ";
  }
  for (std::size_t e = 0; e < c.values.size(); ++e) {
    if (std::memcmp(&c.values[e], &ref.values[e], sizeof(scalar_t)) != 0) {
      return ::testing::AssertionFailure() << "value bits differ at entry " << e << ": "
                                           << c.values[e] << " vs " << ref.values[e];
    }
  }
  return ::testing::AssertionSuccess();
}

/// `spgemm(a, b)` under Serial, OpenMP 3 and OpenMP all, times Static,
/// EdgeBalanced and Dynamic, each bitwise equal to the two-pass reference.
void expect_spgemm_matches_reference(const graph::CrsMatrix& a, const graph::CrsMatrix& b,
                                     const std::string& what) {
  const graph::CrsMatrix ref = spgemm_two_pass_reference(a, b);
  for (Schedule s : {Schedule::Static, Schedule::EdgeBalanced, Schedule::Dynamic}) {
    const std::pair<Backend, int> cfgs[] = {
        {Backend::Serial, 1}, {Backend::OpenMP, 3}, {Backend::OpenMP, 0}};
    for (auto [backend, threads] : cfgs) {
      ScopedExecution scope(backend, threads, s);
      EXPECT_TRUE(same_bits(graph::spgemm(a, b), ref))
          << what << " schedule=" << static_cast<int>(s)
          << " backend=" << static_cast<int>(backend) << " threads=" << threads;
    }
  }
}

TEST(SpgemmFused, MatchesTwoPassReferenceBitExactly) {
  const graph::CrsMatrix a = skewed_test_matrix();
  expect_spgemm_matches_reference(a, a, "A*A");  // same accumulation order
}

TEST(SpgemmFused, SymbolicMatchesNumericPattern) {
  const graph::CrsMatrix a = skewed_test_matrix();
  ScopedExecution scope(Backend::OpenMP, 0, Schedule::EdgeBalanced);
  const graph::CrsMatrix c = graph::spgemm(a, a);
  const graph::CrsGraph pattern = graph::spgemm_symbolic(a, a);
  EXPECT_EQ(pattern.row_map, c.row_map);
  EXPECT_EQ(pattern.entries, c.entries);
}

TEST(SpgemmFused, SinglePassTraversalCounter) {
  const graph::CrsMatrix a = skewed_test_matrix();
  const std::pair<Backend, int> cfgs[] = {{Backend::Serial, 1}, {Backend::OpenMP, 0}};
  for (auto [backend, threads] : cfgs) {
    ScopedExecution scope(backend, threads, Schedule::EdgeBalanced);
    graph::spgemm_reset_stats();
    (void)graph::spgemm(a, a);
    // One inner product per output row — the two-pass kernel would report
    // 2 * num_rows here.
    EXPECT_EQ(graph::spgemm_rows_traversed(), a.num_rows);
    graph::spgemm_reset_stats();
    (void)graph::spgemm_symbolic(a, a);
    EXPECT_EQ(graph::spgemm_rows_traversed(), a.num_rows);
  }
}

// ---------------------------------------------------- dense-row SpGEMM

/// CRS matrix from explicit rows of (column, value) pairs, sorted by column.
graph::CrsMatrix matrix_of_rows(ordinal_t ncols,
                                std::vector<std::vector<std::pair<ordinal_t, scalar_t>>> rows) {
  graph::CrsMatrix m;
  m.num_rows = static_cast<ordinal_t>(rows.size());
  m.num_cols = ncols;
  m.row_map.assign(1, 0);
  for (auto& row : rows) {
    std::sort(row.begin(), row.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [col, val] : row) {
      m.entries.push_back(col);
      m.values.push_back(val);
    }
    m.row_map.push_back(static_cast<offset_t>(m.entries.size()));
  }
  return m;
}

/// Random sparse matrix whose row `i` has `degree(i)` distinct columns.
/// Values mix general doubles with the ones dense accumulation must get
/// exactly right: explicit ±0.0 (signed-zero products) and ±1.0 (exact
/// cancellations).
template <typename Degree>
graph::CrsMatrix random_operand(ordinal_t nrows, ordinal_t ncols, Degree&& degree,
                                std::uint64_t seed) {
  rng::SplitMix64 gen(seed);
  std::vector<std::vector<std::pair<ordinal_t, scalar_t>>> rows(
      static_cast<std::size_t>(nrows));
  std::vector<char> used(static_cast<std::size_t>(ncols), 0);
  for (ordinal_t i = 0; i < nrows; ++i) {
    const ordinal_t d = std::min<ordinal_t>(degree(i), ncols);
    auto& row = rows[static_cast<std::size_t>(i)];
    while (static_cast<ordinal_t>(row.size()) < d) {
      const ordinal_t col = static_cast<ordinal_t>(gen.next() % static_cast<std::uint64_t>(ncols));
      if (used[static_cast<std::size_t>(col)]) continue;
      used[static_cast<std::size_t>(col)] = 1;
      const std::uint64_t kind = gen.next() % 8;
      const scalar_t v = kind == 0   ? 0.0
                         : kind == 1 ? -0.0
                         : kind == 2 ? 1.0
                         : kind == 3 ? -1.0
                                     : gen.next_double() * 4.0 - 2.0;
      row.emplace_back(col, v);
    }
    for (const auto& e : row) used[static_cast<std::size_t>(e.first)] = 0;
  }
  return matrix_of_rows(ncols, std::move(rows));
}

std::uint64_t bits_of(scalar_t v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

TEST(SpgemmDense, SignedZeroProductsKeepTheirSign) {
  // B rows are full (4 columns), so every nonempty A row has flops >= nc
  // and takes the dense path.
  const graph::CrsMatrix b = matrix_of_rows(
      4, {{{0, 0.0}, {1, 0.0}, {2, 1.0}, {3, -0.0}},
          {{0, 0.0}, {1, -0.0}, {2, -0.0}, {3, 1.0}},
          {{0, 1.0}, {1, 2.0}, {2, 3.0}, {3, 4.0}}});
  const graph::CrsMatrix a =
      matrix_of_rows(3, {{{0, -1.0}, {1, 2.0}}, {{2, -0.0}}, {{0, -1.0}}});
  const graph::CrsMatrix ref = spgemm_two_pass_reference(a, b);
  expect_spgemm_matches_reference(a, b, "signed zeros");

  const graph::CrsMatrix c = graph::spgemm(a, b);
  ASSERT_EQ(c.row_map, (std::vector<offset_t>{0, 4, 8, 12}));
  // Row 0: (-1)(0) + (2)(0) = -0 + +0 = +0; (-1)(0) + (2)(-0) = -0 + -0 = -0.
  EXPECT_EQ(bits_of(c.values[0]), bits_of(0.0));
  EXPECT_EQ(bits_of(c.values[1]), bits_of(-0.0));
  EXPECT_EQ(c.values[2], -1.0);
  EXPECT_EQ(c.values[3], 2.0);
  // Row 1: every product is (-0)(positive) = -0, and each stays structural.
  for (std::size_t e = 4; e < 8; ++e) EXPECT_EQ(bits_of(c.values[e]), bits_of(-0.0)) << e;
  // Row 2: a single product per column, copied verbatim: -0, -0, -1, +0.
  EXPECT_EQ(bits_of(c.values[8]), bits_of(-0.0));
  EXPECT_EQ(bits_of(c.values[9]), bits_of(-0.0));
  EXPECT_EQ(bits_of(c.values[11]), bits_of(0.0));
}

TEST(SpgemmDense, ExactCancellationsStayStructural) {
  const graph::CrsMatrix b =
      matrix_of_rows(3, {{{0, 1.0}, {1, 0.5}, {2, 3.0}}, {{0, 1.0}, {1, 0.5}, {2, 3.0}}});
  const graph::CrsMatrix a = matrix_of_rows(2, {{{0, 1.0}, {1, -1.0}}, {{0, -2.0}, {1, 2.0}}});
  expect_spgemm_matches_reference(a, b, "cancellations");
  const graph::CrsMatrix c = graph::spgemm(a, b);
  ASSERT_EQ(c.row_map, (std::vector<offset_t>{0, 3, 6}));
  EXPECT_EQ(c.entries, (std::vector<ordinal_t>{0, 1, 2, 0, 1, 2}));
  for (std::size_t e = 0; e < 6; ++e) EXPECT_EQ(bits_of(c.values[e]), bits_of(0.0)) << e;
}

TEST(SpgemmDense, FlopCountsAroundTheOutputWidth) {
  // nc = 64. B row 0 has 63 entries, row 1 one, row 2 two, so A rows
  // {0}, {0,1}, {0,2} have flops nc-1, nc and nc+1 — either side of the
  // dense threshold — and overlap in columns so the sums are real.
  constexpr ordinal_t nc = 64;
  std::vector<std::vector<std::pair<ordinal_t, scalar_t>>> brows(3);
  for (ordinal_t j = 0; j < nc - 1; ++j) brows[0].emplace_back(j, 0.25 * (j % 7) - 0.5);
  brows[1] = {{63, 1.5}};
  brows[2] = {{5, -0.75}, {63, 2.0}};
  const graph::CrsMatrix b = matrix_of_rows(nc, brows);
  const graph::CrsMatrix a = matrix_of_rows(
      3, {{{0, 1.25}}, {{0, -3.0}, {1, 0.5}}, {{0, 0.1}, {2, 7.0}}, {{1, 2.0}}, {}});
  expect_spgemm_matches_reference(a, b, "flops around nc");
}

TEST(SpgemmDense, DenseRowsInterleavedWithSparseOnes) {
  // Rows alternate between runs of dense rows (flops well above nc),
  // single sparse rows and empty rows, over enough rows that the OpenMP
  // configurations cut chunks inside dense runs.
  constexpr ordinal_t inner = 300;
  constexpr ordinal_t nc = 150;
  const graph::CrsMatrix b = random_operand(
      inner, nc, [](ordinal_t k) { return 1 + k % 11; }, 11);
  const graph::CrsMatrix a = random_operand(
      2000, inner,
      [](ordinal_t i) -> ordinal_t {
        if (i % 13 == 5) return 0;
        if (i % 7 == 3) return 2;
        return 20 + i % 40;
      },
      12);
  expect_spgemm_matches_reference(a, b, "interleaved");
}

TEST(SpgemmDense, BlocksEndingAtChunkBoundaries) {
  // nc = 2^15 makes each dense block 2^17 / 2^15 = 4 rows. 24 equal-cost
  // dense rows split into 3 chunks of 8 (blocks end exactly on the chunk
  // boundaries) and, with more threads, into chunks that end mid-block.
  constexpr ordinal_t nc = ordinal_t{1} << 15;
  constexpr ordinal_t inner = 40;
  const graph::CrsMatrix b = random_operand(
      inner, nc, [](ordinal_t) { return nc / 8; }, 21);
  const graph::CrsMatrix a = random_operand(
      24, inner, [](ordinal_t) { return 10; }, 22);
  for (ordinal_t i = 0; i < a.num_rows; ++i) {
    offset_t flops = 0;
    for (ordinal_t k : a.row(i)) flops += b.row_map[k + 1] - b.row_map[k];
    ASSERT_GE(flops, nc) << "row " << i << " must be dense";
  }
  expect_spgemm_matches_reference(a, b, "blocks at chunk boundaries");
}

TEST(SpgemmDense, GalerkinShapesOfAPowerLawAggregation) {
  // A real smoothed-aggregation setup whose first coarse level has fewer
  // than 512 aggregates: A·P̂ and A·P are mostly dense rows over a narrow
  // output, R·(AP) is a short, heavy product of dense rows.
  const graph::CrsGraph g = graph::power_law_graph(5000, 2.2, 4, 200, 7);
  const graph::CrsMatrix a = graph::laplacian_matrix(g, 1.0);
  multilevel::Options opts;
  opts.ctx = Context{};
  opts.ctx->backend = Backend::Serial;
  const multilevel::Builder builder(opts);
  multilevel::HierarchyHandle h;
  const std::vector<multilevel::OperatorLevel>& ops = builder.build_galerkin(a, h);
  ASSERT_GE(ops.size(), 2u);
  ASSERT_GT(ops[0].num_aggregates, 0);
  ASSERT_LT(ops[0].num_aggregates, par::parallel_for_grain);
  const auto& ws = multilevel::galerkin_workspace(h).front();
  expect_spgemm_matches_reference(ops[0].a, ws.phat, "A*Phat");
  expect_spgemm_matches_reference(ops[0].a, ops[0].p, "A*P");
  expect_spgemm_matches_reference(ops[0].r, ws.apc, "R*(AP)");
}

TEST(TransposeParallel, MatchesSerialReferenceAcrossConfigs) {
  const graph::CrsMatrix a = skewed_test_matrix();
  // Reference: the classical serial counting sort.
  graph::CrsMatrix ref;
  {
    ScopedExecution scope(Backend::Serial, 1);
    ref = graph::transpose_matrix(a);
  }
  // Transpose of a symmetric matrix is itself — sanity on the reference.
  EXPECT_EQ(ref.row_map, a.row_map);
  EXPECT_EQ(ref.entries, a.entries);
  for (Schedule s : {Schedule::Static, Schedule::EdgeBalanced}) {
    for (int threads : {2, 3, 0}) {
      ScopedExecution scope(Backend::OpenMP, threads, s);
      const graph::CrsMatrix t = graph::transpose_matrix(a);
      EXPECT_EQ(t.row_map, ref.row_map);
      EXPECT_EQ(t.entries, ref.entries);
      EXPECT_EQ(t.values, ref.values);
    }
  }
}

TEST(TransposeParallel, RectangularAndEmpty) {
  // Rectangular: 3x5 with a dense-ish pattern, checked by hand via COO.
  std::vector<graph::Triplet> trips{{0, 4, 1.0}, {0, 0, 2.0}, {1, 2, 3.0},
                                    {2, 2, 4.0}, {2, 3, 5.0}};
  const graph::CrsMatrix a = graph::matrix_from_coo(3, 5, trips);
  ScopedExecution scope(Backend::OpenMP, 0, Schedule::EdgeBalanced);
  const graph::CrsMatrix t = graph::transpose_matrix(a);
  EXPECT_EQ(t.num_rows, 5);
  EXPECT_EQ(t.num_cols, 3);
  std::multimap<std::pair<ordinal_t, ordinal_t>, scalar_t> expect;
  for (const auto& tr : trips) expect.insert({{tr.col, tr.row}, tr.value});
  for (ordinal_t i = 0; i < t.num_rows; ++i) {
    for (offset_t j = t.row_map[i]; j < t.row_map[i + 1]; ++j) {
      const auto it = expect.find({i, t.entries[static_cast<std::size_t>(j)]});
      ASSERT_NE(it, expect.end());
      EXPECT_DOUBLE_EQ(it->second, t.values[static_cast<std::size_t>(j)]);
    }
  }
  EXPECT_EQ(t.num_entries(), static_cast<offset_t>(trips.size()));

  const graph::CrsMatrix none = graph::transpose_matrix(graph::CrsMatrix{});
  EXPECT_EQ(none.num_rows, 0);
  EXPECT_EQ(none.num_entries(), 0);
}

// ------------------------------------------------------- schedule results

TEST(ScheduleInvariance, Mis2AndSpmvIdenticalUnderStaticAndEdgeBalanced) {
  const graph::CrsGraph g = graph::power_law_graph(3000, 2.2, 3, 300, 21);
  const graph::CrsMatrix m = graph::laplacian_matrix(g, 1.0);
  std::vector<scalar_t> x(static_cast<std::size_t>(m.num_rows));
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 1.0 / static_cast<double>(i + 1);

  std::vector<ordinal_t> ref_members;
  std::vector<scalar_t> ref_y;
  bool first = true;
  for (Schedule s : {Schedule::Static, Schedule::EdgeBalanced}) {
    const std::pair<Backend, int> cfgs[] = {
        {Backend::Serial, 1}, {Backend::OpenMP, 2}, {Backend::OpenMP, 0}};
    for (auto [backend, threads] : cfgs) {
      Context ctx;
      ctx.backend = backend;
      ctx.num_threads = threads;
      ctx.schedule = s;
      core::Mis2Handle handle(ctx);
      const std::vector<ordinal_t> members = handle.run(g).members;
      std::vector<scalar_t> y(x.size(), 0);
      {
        Context::Scope scope(ctx);
        graph::spmv(m, x, y);
      }
      if (first) {
        ref_members = members;
        ref_y = y;
        first = false;
      } else {
        EXPECT_EQ(members, ref_members)
            << "schedule=" << static_cast<int>(s) << " threads=" << threads;
        EXPECT_EQ(y, ref_y) << "schedule=" << static_cast<int>(s) << " threads=" << threads;
      }
    }
  }
}

TEST(ScheduleContext, DefaultCtxSnapshotsAndScopePins) {
  EXPECT_EQ(Context{}.schedule, Schedule::EdgeBalanced);
  {
    ScopedExecution outer(Backend::Serial, 1, Schedule::Static);
    EXPECT_EQ(Context::default_ctx().schedule, Schedule::Static);
    Context ctx;
    ctx.schedule = Schedule::Dynamic;
    {
      Context::Scope scope(ctx);
      EXPECT_EQ(Execution::schedule(), Schedule::Dynamic);
    }
    EXPECT_EQ(Execution::schedule(), Schedule::Static);  // restored
  }
}

}  // namespace
}  // namespace parmis
