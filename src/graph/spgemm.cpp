#include "graph/spgemm.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>

#include "check/check.hpp"
#include "check/validate.hpp"
#include "obs/trace.hpp"
#include "parallel/balanced_for.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/parallel_scan.hpp"

namespace parmis::graph {

namespace {

/// Per-thread dense accumulator with stamp-based clearing. `thread_local`
/// so repeated SpGEMM calls reuse the allocation.
struct Workspace {
  std::vector<std::uint64_t> stamp_of;
  std::vector<scalar_t> acc;
  std::vector<ordinal_t> touched;
  std::uint64_t stamp{0};

  void ensure(ordinal_t ncols) {
    if (stamp_of.size() < static_cast<std::size_t>(ncols)) {
      stamp_of.assign(static_cast<std::size_t>(ncols), 0);
      acc.assign(static_cast<std::size_t>(ncols), 0);
      stamp = 0;
    }
  }
};

thread_local Workspace t_ws;

/// Accumulator rows per dense block: about 1 MB of doubles, whatever the
/// output width.
constexpr std::int64_t kDenseBlockScalars = std::int64_t{1} << 17;

/// Per-thread map from A's column k to its bucket in the current dense
/// block, cleared by epoch so a block never pays O(a.num_cols). Small
/// (a.num_cols entries), so it is kept across calls like `Workspace`.
struct BucketMap {
  std::vector<std::uint64_t> seen;  // epoch at which k last joined a block's keys
  std::vector<ordinal_t> slot_of;   // bucket of k in the current block
  std::uint64_t epoch{0};

  void ensure(ordinal_t ncols_a) {
    if (seen.size() < static_cast<std::size_t>(ncols_a)) {
      seen.assign(static_cast<std::size_t>(ncols_a), 0);
      slot_of.resize(static_cast<std::size_t>(ncols_a));
      epoch = 0;
    }
  }
};

thread_local BucketMap t_buckets;

/// Scratch of one chunk's dense blocks: up to `kDenseBlockScalars / nc`
/// output rows accumulated side by side, and the block's A entries
/// bucketed by k. It holds megabytes, so it lives for one product only
/// instead of staying pinned in every thread's heap.
struct DenseBlock {
  std::vector<scalar_t> acc;         // rows × nc accumulators
  std::vector<unsigned char> hit;    // rows × nc structural flags
  std::vector<ordinal_t> keys;       // the block's distinct k, ascending
  std::vector<offset_t> bucket_end;  // bucket d = [end[d-1], end[d])
  std::vector<ordinal_t> item_row;   // block-local row of each bucketed entry
  std::vector<scalar_t> item_val;    // its A value
};

std::atomic<std::int64_t> g_rows_traversed{0};

/// Equal-flop chunking cost: prefix of `1 + Σ_{k ∈ A.row(i)} deg_B(k)` —
/// the exact inner-product work of output row `i`. Built whenever the
/// product may fork: besides balancing EdgeBalanced chunks, its total lets
/// `balanced_chunks` fork a short but heavy product (a few hundred dense
/// coarse rows) under every schedule.
std::vector<offset_t> product_cost_prefix(GraphView a, const offset_t* b_row_map) {
  std::vector<offset_t> cost(static_cast<std::size_t>(a.num_rows) + 1);
  par::parallel_for(a.num_rows, [&](ordinal_t i) {
    offset_t w = 1;
    for (ordinal_t k : a.row(i)) {
      w += b_row_map[k + 1] - b_row_map[k];
    }
    cost[static_cast<std::size_t>(i)] = w;
  });
  cost[static_cast<std::size_t>(a.num_rows)] = 0;
  par::exclusive_scan_inplace(std::span<offset_t>(cost));
  return cost;
}

/// One arena per chunk: rows land in the arena of the chunk that computed
/// them and are scattered into the final CRS arrays after the length scan.
struct Arena {
  std::vector<ordinal_t> cols;
  std::vector<scalar_t> vals;
};

/// Row `i` of A·B takes the dense path when its flop count
/// Σ_{k ∈ A.row(i)} deg_B(k) reaches the output width (so an O(nc)
/// accumulator costs no more than its flops) and its A entries are
/// strictly ascending (the CRS invariant, which the block's ascending-k
/// sweep relies on for the row-wise summation order).
bool dense_row(const CrsMatrix& a, const CrsMatrix& b, ordinal_t i) {
  offset_t flops = 0;
  ordinal_t prev = -1;
  for (ordinal_t k : a.row(i)) {
    if (k <= prev) return false;
    prev = k;
    flops += b.row_map[k + 1] - b.row_map[k];
  }
  return flops > 0 && flops >= b.num_cols;
}

/// Dense-path product of A rows `[r0, r1)` (all `dense_row`), appended to
/// `ar` in row order with `row_len[i]` set.
///
/// Each accumulator starts at −0.0, the exact additive identity
/// (−0.0 + x == x bitwise for every x, +0.0 included), so adding every
/// product reproduces the stamp path's "first product assigns, the rest
/// add" bit for bit. The block's A entries are bucketed by k (entry order
/// kept) and the distinct k are swept in ascending order, so B's row k is
/// streamed once per block instead of once per referencing row, while each
/// output still receives its products in the row's own (ascending-k)
/// order. Rows are emitted by a column scan: sorted without a sort.
void dense_block_product(const CrsMatrix& a, const CrsMatrix& b, ordinal_t r0, ordinal_t r1,
                         DenseBlock& ws, Arena& ar, offset_t* row_len) {
  BucketMap& map = t_buckets;
  map.ensure(a.num_cols);
  const std::size_t nc = static_cast<std::size_t>(b.num_cols);
  const std::size_t rows = static_cast<std::size_t>(r1 - r0);
  const offset_t e0 = a.row_map[r0];
  const offset_t e1 = a.row_map[r1];

  // Distinct k of the block, ascending, and their bucket numbers.
  ++map.epoch;
  ws.keys.clear();
  for (offset_t ja = e0; ja < e1; ++ja) {
    const std::size_t k = static_cast<std::size_t>(a.entries[static_cast<std::size_t>(ja)]);
    if (map.seen[k] != map.epoch) {
      map.seen[k] = map.epoch;
      ws.keys.push_back(static_cast<ordinal_t>(k));
    }
  }
  std::sort(ws.keys.begin(), ws.keys.end());
  const std::size_t nkeys = ws.keys.size();
  for (std::size_t d = 0; d < nkeys; ++d) {
    map.slot_of[static_cast<std::size_t>(ws.keys[d])] = static_cast<ordinal_t>(d);
  }

  // Counting sort of the block's entries into their k buckets, stable in
  // entry order (rows ascending).
  ws.bucket_end.assign(nkeys + 1, 0);
  for (offset_t ja = e0; ja < e1; ++ja) {
    const ordinal_t k = a.entries[static_cast<std::size_t>(ja)];
    ++ws.bucket_end[static_cast<std::size_t>(map.slot_of[static_cast<std::size_t>(k)]) + 1];
  }
  for (std::size_t d = 0; d < nkeys; ++d) ws.bucket_end[d + 1] += ws.bucket_end[d];
  ws.item_row.resize(static_cast<std::size_t>(e1 - e0));
  ws.item_val.resize(static_cast<std::size_t>(e1 - e0));
  for (ordinal_t i = r0; i < r1; ++i) {
    for (offset_t ja = a.row_map[i]; ja < a.row_map[i + 1]; ++ja) {
      const std::size_t slot = static_cast<std::size_t>(
          map.slot_of[static_cast<std::size_t>(a.entries[static_cast<std::size_t>(ja)])]);
      const std::size_t pos = static_cast<std::size_t>(ws.bucket_end[slot]++);
      ws.item_row[pos] = i - r0;
      ws.item_val[pos] = a.values[static_cast<std::size_t>(ja)];
    }
  }
  // The placement pass advanced bucket d's cursor to its end; bucket d now
  // spans [bucket_end[d-1], bucket_end[d]) with bucket_end[-1] = 0.

  ws.acc.assign(rows * nc, -0.0);
  ws.hit.assign(rows * nc, 0);
  const ordinal_t* b_cols = b.entries.data();
  const scalar_t* b_vals = b.values.data();
  offset_t begin = 0;
  for (std::size_t d = 0; d < nkeys; ++d) {
    const ordinal_t k = ws.keys[d];
    const offset_t jb0 = b.row_map[k];
    const offset_t jb1 = b.row_map[k + 1];
    const offset_t end = ws.bucket_end[d];
    for (offset_t it = begin; it < end; ++it) {
      const std::size_t row = static_cast<std::size_t>(ws.item_row[static_cast<std::size_t>(it)]);
      const scalar_t av = ws.item_val[static_cast<std::size_t>(it)];
      scalar_t* acc = ws.acc.data() + row * nc;
      unsigned char* hit = ws.hit.data() + row * nc;
      for (offset_t jb = jb0; jb < jb1; ++jb) {
        const std::size_t j = static_cast<std::size_t>(b_cols[jb]);
        acc[j] += av * b_vals[jb];
        hit[j] = 1;
      }
    }
    begin = end;
  }

  for (std::size_t row = 0; row < rows; ++row) {
    const scalar_t* acc = ws.acc.data() + row * nc;
    const unsigned char* hit = ws.hit.data() + row * nc;
    std::size_t len = 0;
    for (std::size_t j = 0; j < nc; ++j) len += hit[j];
    const std::size_t base = ar.cols.size();
    ar.cols.resize(base + len);
    ar.vals.resize(base + len);
    ordinal_t* cols = ar.cols.data() + base;
    scalar_t* vals = ar.vals.data() + base;
    for (std::size_t j = 0; j < nc; ++j) {
      if (hit[j]) {
        *cols++ = static_cast<ordinal_t>(j);
        *vals++ = acc[j];
      }
    }
    row_len[row] = static_cast<offset_t>(len);
  }
}

}  // namespace

CrsGraph spgemm_symbolic(GraphView a, GraphView b) {
  assert(a.num_cols == b.num_rows);
  PARMIS_SPAN("spgemm.symbolic");
  CrsGraph c;
  c.num_rows = a.num_rows;
  c.num_cols = b.num_cols;
  c.row_map.assign(static_cast<std::size_t>(a.num_rows) + 1, 0);
  if (a.num_rows == 0) return c;

  const std::vector<offset_t> cost = par::Execution::is_parallel()
                                         ? product_cost_prefix(a, b.row_map)
                                         : std::vector<offset_t>{};
  const offset_t* cost_ptr = cost.empty() ? nullptr : cost.data();

  std::vector<Arena> arenas(static_cast<std::size_t>(par::balanced_chunk_count()));
  std::vector<int> arena_of(static_cast<std::size_t>(a.num_rows));
  std::vector<offset_t> arena_off(static_cast<std::size_t>(a.num_rows));

  // The single traversal: pattern of each row, deduplicated with the stamp
  // workspace, sorted, appended to the chunk's arena.
  par::balanced_chunks(a.num_rows, cost_ptr, [&](int chunk, ordinal_t lo, ordinal_t hi) {
    Arena& ar = arenas[static_cast<std::size_t>(chunk)];
    Workspace& ws = t_ws;
    ws.ensure(b.num_cols);
    for (ordinal_t i = lo; i < hi; ++i) {
      ++ws.stamp;
      ws.touched.clear();
      for (ordinal_t k : a.row(i)) {
        for (ordinal_t j : b.row(k)) {
          if (ws.stamp_of[static_cast<std::size_t>(j)] != ws.stamp) {
            ws.stamp_of[static_cast<std::size_t>(j)] = ws.stamp;
            ws.touched.push_back(j);
          }
        }
      }
      std::sort(ws.touched.begin(), ws.touched.end());
      arena_of[static_cast<std::size_t>(i)] = chunk;
      arena_off[static_cast<std::size_t>(i)] = static_cast<offset_t>(ar.cols.size());
      ar.cols.insert(ar.cols.end(), ws.touched.begin(), ws.touched.end());
      c.row_map[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(ws.touched.size());
    }
    g_rows_traversed.fetch_add(hi - lo, std::memory_order_relaxed);
  });

  par::inclusive_scan_inplace(
      std::span<offset_t>(c.row_map.data() + 1, static_cast<std::size_t>(a.num_rows)));
  c.entries.resize(static_cast<std::size_t>(c.row_map.back()));
  par::balanced_for(a.num_rows, c.row_map.data(), [&](ordinal_t i) {
    const Arena& ar = arenas[static_cast<std::size_t>(arena_of[static_cast<std::size_t>(i)])];
    const offset_t len = c.row_map[i + 1] - c.row_map[i];
    std::copy_n(ar.cols.begin() + static_cast<std::ptrdiff_t>(arena_off[static_cast<std::size_t>(i)]),
                len, c.entries.begin() + static_cast<std::ptrdiff_t>(c.row_map[i]));
  });
  return c;
}

CrsMatrix spgemm(const CrsMatrix& a, const CrsMatrix& b) {
  assert(a.num_cols == b.num_rows);
  PARMIS_CHECK_MSG(a.num_cols == b.num_rows, "spgemm operand shapes do not chain");
  PARMIS_CHECK_OK(check::validate(a));
  PARMIS_CHECK_OK(check::validate(b));
  obs::Span span("spgemm.numeric");
  span.arg("rows", a.num_rows);
  CrsMatrix c;
  c.num_rows = a.num_rows;
  c.num_cols = b.num_cols;
  c.row_map.assign(static_cast<std::size_t>(a.num_rows) + 1, 0);
  if (a.num_rows == 0) return c;

  const std::vector<offset_t> cost = par::Execution::is_parallel()
                                         ? product_cost_prefix(GraphView(a), b.row_map.data())
                                         : std::vector<offset_t>{};
  const offset_t* cost_ptr = cost.empty() ? nullptr : cost.data();

  std::vector<Arena> arenas(static_cast<std::size_t>(par::balanced_chunk_count()));
  std::vector<int> arena_of(static_cast<std::size_t>(a.num_rows));
  std::vector<offset_t> arena_off(static_cast<std::size_t>(a.num_rows));

  // The single traversal. The accumulation order within a row is fixed by
  // the entry order of A and B (never by scheduling or by the path a row
  // takes), and columns are emitted sorted, so entries *and values* are
  // bit-deterministic for any chunking. Runs of consecutive dense rows are
  // cut into blocks of `block_rows` (never across a chunk boundary); the
  // remaining rows take the stamp path.
  const ordinal_t block_rows = static_cast<ordinal_t>(
      std::max<std::int64_t>(1, kDenseBlockScalars / std::max<ordinal_t>(b.num_cols, 1)));
  par::balanced_chunks(a.num_rows, cost_ptr, [&](int chunk, ordinal_t lo, ordinal_t hi) {
    Arena& ar = arenas[static_cast<std::size_t>(chunk)];
    Workspace& ws = t_ws;
    ws.ensure(b.num_cols);
    // A dense row emits at most nc entries, and in practice nearly nc.
    // Reserving that much up front keeps the arena from regrowing (and
    // leaving freed copies in the heap) while a dense product writes its
    // 100+ MB output; sparse rows still grow it geometrically.
    std::size_t dense_rows = 0;
    for (ordinal_t i = lo; i < hi; ++i) dense_rows += dense_row(a, b, i) ? 1 : 0;
    ar.cols.reserve(dense_rows * static_cast<std::size_t>(b.num_cols));
    ar.vals.reserve(dense_rows * static_cast<std::size_t>(b.num_cols));
    DenseBlock block;
    for (ordinal_t i = lo; i < hi;) {
      if (dense_row(a, b, i)) {
        ordinal_t end = i + 1;
        while (end < hi && end - i < block_rows && dense_row(a, b, end)) ++end;
        offset_t off = static_cast<offset_t>(ar.cols.size());
        dense_block_product(a, b, i, end, block, ar, c.row_map.data() + i + 1);
        for (; i < end; ++i) {
          arena_of[static_cast<std::size_t>(i)] = chunk;
          arena_off[static_cast<std::size_t>(i)] = off;
          off += c.row_map[static_cast<std::size_t>(i) + 1];
        }
        continue;
      }
      ++ws.stamp;
      ws.touched.clear();
      for (offset_t ja = a.row_map[i]; ja < a.row_map[i + 1]; ++ja) {
        const ordinal_t k = a.entries[static_cast<std::size_t>(ja)];
        const scalar_t av = a.values[static_cast<std::size_t>(ja)];
        for (offset_t jb = b.row_map[k]; jb < b.row_map[k + 1]; ++jb) {
          const ordinal_t j = b.entries[static_cast<std::size_t>(jb)];
          const scalar_t bv = b.values[static_cast<std::size_t>(jb)];
          if (ws.stamp_of[static_cast<std::size_t>(j)] != ws.stamp) {
            ws.stamp_of[static_cast<std::size_t>(j)] = ws.stamp;
            ws.acc[static_cast<std::size_t>(j)] = av * bv;
            ws.touched.push_back(j);
          } else {
            ws.acc[static_cast<std::size_t>(j)] += av * bv;
          }
        }
      }
      std::sort(ws.touched.begin(), ws.touched.end());
      arena_of[static_cast<std::size_t>(i)] = chunk;
      arena_off[static_cast<std::size_t>(i)] = static_cast<offset_t>(ar.cols.size());
      for (ordinal_t j : ws.touched) {
        ar.cols.push_back(j);
        ar.vals.push_back(ws.acc[static_cast<std::size_t>(j)]);
      }
      c.row_map[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(ws.touched.size());
      ++i;
    }
    g_rows_traversed.fetch_add(hi - lo, std::memory_order_relaxed);
  });

  par::inclusive_scan_inplace(
      std::span<offset_t>(c.row_map.data() + 1, static_cast<std::size_t>(a.num_rows)));
  c.entries.resize(static_cast<std::size_t>(c.row_map.back()));
  c.values.resize(static_cast<std::size_t>(c.row_map.back()));
  par::balanced_for(a.num_rows, c.row_map.data(), [&](ordinal_t i) {
    const Arena& ar = arenas[static_cast<std::size_t>(arena_of[static_cast<std::size_t>(i)])];
    const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(arena_off[static_cast<std::size_t>(i)]);
    const offset_t len = c.row_map[i + 1] - c.row_map[i];
    std::copy_n(ar.cols.begin() + src, len,
                c.entries.begin() + static_cast<std::ptrdiff_t>(c.row_map[i]));
    std::copy_n(ar.vals.begin() + src, len,
                c.values.begin() + static_cast<std::ptrdiff_t>(c.row_map[i]));
  });
  PARMIS_CHECK_OK(check::validate(c));
  return c;
}

void spgemm_numeric(const CrsMatrix& a, const CrsMatrix& b, CrsMatrix& c) {
  assert(a.num_cols == b.num_rows);
  assert(c.num_rows == a.num_rows && c.num_cols == b.num_cols);
  PARMIS_CHECK_MSG(a.num_cols == b.num_rows, "spgemm_numeric operand shapes do not chain");
  PARMIS_CHECK_MSG(c.num_rows == a.num_rows && c.num_cols == b.num_cols,
                   "spgemm_numeric product shape does not match operands");
  PARMIS_CHECK(c.values.size() == c.entries.size());
  if (a.num_rows == 0) return;
  obs::Span span("spgemm.replay");
  span.arg("rows", a.num_rows);

  // With the product's sparsity known, each row seeds its accumulator
  // slots with −0.0 (the exact additive identity, so a column whose
  // products are all −0.0 stays −0.0 as in `spgemm`), replays the inner
  // products in the exact entry order of `spgemm` (so values are
  // bit-identical), and reads the row back off the fixed column pattern.
  // A's row_map balances the sweep without building a flop-cost prefix,
  // keeping warm replays allocation-free.
  par::balanced_for(a.num_rows, a.row_map.data(), [&](ordinal_t i) {
    Workspace& ws = t_ws;
    ws.ensure(b.num_cols);
    for (offset_t jc = c.row_map[i]; jc < c.row_map[i + 1]; ++jc) {
      ws.acc[static_cast<std::size_t>(c.entries[static_cast<std::size_t>(jc)])] = -0.0;
    }
    for (offset_t ja = a.row_map[i]; ja < a.row_map[i + 1]; ++ja) {
      const ordinal_t k = a.entries[static_cast<std::size_t>(ja)];
      const scalar_t av = a.values[static_cast<std::size_t>(ja)];
      for (offset_t jb = b.row_map[k]; jb < b.row_map[k + 1]; ++jb) {
        ws.acc[static_cast<std::size_t>(b.entries[static_cast<std::size_t>(jb)])] +=
            av * b.values[static_cast<std::size_t>(jb)];
      }
    }
    for (offset_t jc = c.row_map[i]; jc < c.row_map[i + 1]; ++jc) {
      c.values[static_cast<std::size_t>(jc)] =
          ws.acc[static_cast<std::size_t>(c.entries[static_cast<std::size_t>(jc)])];
    }
  });
}

void spgemm_warm_thread(ordinal_t ncols) { t_ws.ensure(ncols); }

CrsMatrix matrix_add(scalar_t alpha, const CrsMatrix& a, scalar_t beta, const CrsMatrix& b) {
  assert(a.num_rows == b.num_rows && a.num_cols == b.num_cols);
  CrsMatrix c;
  c.num_rows = a.num_rows;
  c.num_cols = a.num_cols;
  c.row_map.assign(static_cast<std::size_t>(a.num_rows) + 1, 0);

  auto merged_count = [&](ordinal_t i) {
    auto ra = a.row(i);
    auto rb = b.row(i);
    std::size_t ia = 0, ib = 0;
    offset_t count = 0;
    while (ia < ra.size() || ib < rb.size()) {
      if (ib >= rb.size() || (ia < ra.size() && ra[ia] < rb[ib])) {
        ++ia;
      } else if (ia >= ra.size() || rb[ib] < ra[ia]) {
        ++ib;
      } else {
        ++ia;
        ++ib;
      }
      ++count;
    }
    return count;
  };

  // Per-row merge work is degree-shaped; A's row_map is the (half of the)
  // cost, close enough to balance the sweep.
  par::balanced_for(a.num_rows, a.row_map.data(), [&](ordinal_t i) {
    c.row_map[static_cast<std::size_t>(i) + 1] = merged_count(i);
  });
  for (ordinal_t i = 0; i < a.num_rows; ++i) {
    c.row_map[static_cast<std::size_t>(i) + 1] += c.row_map[static_cast<std::size_t>(i)];
  }
  c.entries.resize(static_cast<std::size_t>(c.row_map.back()));
  c.values.resize(static_cast<std::size_t>(c.row_map.back()));

  par::balanced_for(a.num_rows, c.row_map.data(), [&](ordinal_t i) {
    auto ra = a.row(i);
    auto rb = b.row(i);
    auto va = a.row_values(i);
    auto vb = b.row_values(i);
    std::size_t ia = 0, ib = 0;
    offset_t o = c.row_map[i];
    while (ia < ra.size() || ib < rb.size()) {
      ordinal_t col;
      scalar_t val;
      if (ib >= rb.size() || (ia < ra.size() && ra[ia] < rb[ib])) {
        col = ra[ia];
        val = alpha * va[ia];
        ++ia;
      } else if (ia >= ra.size() || rb[ib] < ra[ia]) {
        col = rb[ib];
        val = beta * vb[ib];
        ++ib;
      } else {
        col = ra[ia];
        val = alpha * va[ia] + beta * vb[ib];
        ++ia;
        ++ib;
      }
      c.entries[static_cast<std::size_t>(o)] = col;
      c.values[static_cast<std::size_t>(o)] = val;
      ++o;
    }
  });
  return c;
}

void matrix_add_numeric(scalar_t alpha, const CrsMatrix& a, scalar_t beta, const CrsMatrix& b,
                        CrsMatrix& c) {
  assert(a.num_rows == b.num_rows && a.num_cols == b.num_cols);
  assert(c.num_rows == a.num_rows);
  par::balanced_for(a.num_rows, c.row_map.data(), [&](ordinal_t i) {
    auto ra = a.row(i);
    auto rb = b.row(i);
    auto va = a.row_values(i);
    auto vb = b.row_values(i);
    std::size_t ia = 0, ib = 0;
    offset_t o = c.row_map[i];
    while (ia < ra.size() || ib < rb.size()) {
      scalar_t val;
      if (ib >= rb.size() || (ia < ra.size() && ra[ia] < rb[ib])) {
        val = alpha * va[ia];
        ++ia;
      } else if (ia >= ra.size() || rb[ib] < ra[ia]) {
        val = beta * vb[ib];
        ++ib;
      } else {
        val = alpha * va[ia] + beta * vb[ib];
        ++ia;
        ++ib;
      }
      c.values[static_cast<std::size_t>(o)] = val;
      ++o;
    }
    assert(o == c.row_map[i + 1]);
  });
}

CrsMatrix transpose_matrix(const CrsMatrix& a) {
  PARMIS_SPAN("spgemm.transpose");
  CrsMatrix t;
  t.num_rows = a.num_cols;
  t.num_cols = a.num_rows;
  t.row_map.assign(static_cast<std::size_t>(a.num_cols) + 1, 0);
  t.entries.resize(static_cast<std::size_t>(a.num_entries()));
  t.values.resize(static_cast<std::size_t>(a.num_entries()));
  if (a.num_rows == 0 || a.num_cols == 0 || a.num_entries() == 0) return t;

  // Parallel counting sort. Rows are cut into the same cost-balanced
  // chunks twice (balanced_chunks guarantees identical boundaries for
  // identical inputs); the histogram pass counts each chunk's entries per
  // column, the per-column scan turns counts into chunk-local starting
  // cursors, and the placement pass writes entries at those cursors. A
  // column's entries arrive ordered by (chunk, row-within-chunk) = source
  // row ascending for *any* contiguous chunking, so the result — rows
  // sorted by original row id — is identical to the serial transpose.
  const std::size_t ncols = static_cast<std::size_t>(a.num_cols);
  const int nchunks = par::balanced_chunk_count();
  std::vector<offset_t> counts(static_cast<std::size_t>(nchunks) * ncols, 0);

  par::balanced_chunks(a.num_rows, a.row_map.data(), [&](int chunk, ordinal_t lo, ordinal_t hi) {
    offset_t* cnt = counts.data() + static_cast<std::size_t>(chunk) * ncols;
    for (ordinal_t i = lo; i < hi; ++i) {
      for (ordinal_t col : a.row(i)) {
        ++cnt[static_cast<std::size_t>(col)];
      }
    }
  });

  par::chunked_cursor_scan(a.num_cols, nchunks, counts, t.row_map);
  par::inclusive_scan_inplace(
      std::span<offset_t>(t.row_map.data() + 1, static_cast<std::size_t>(a.num_cols)));

  par::balanced_chunks(a.num_rows, a.row_map.data(), [&](int chunk, ordinal_t lo, ordinal_t hi) {
    offset_t* cursor = counts.data() + static_cast<std::size_t>(chunk) * ncols;
    for (ordinal_t i = lo; i < hi; ++i) {
      for (offset_t j = a.row_map[i]; j < a.row_map[i + 1]; ++j) {
        const ordinal_t col = a.entries[static_cast<std::size_t>(j)];
        const offset_t o = t.row_map[static_cast<std::size_t>(col)] +
                           cursor[static_cast<std::size_t>(col)]++;
        t.entries[static_cast<std::size_t>(o)] = i;
        t.values[static_cast<std::size_t>(o)] = a.values[static_cast<std::size_t>(j)];
      }
    }
  });
  return t;
}

std::vector<offset_t> transpose_permutation(const CrsMatrix& a) {
  // Serial counting-sort replay of `transpose_matrix`'s placement: a
  // column's entries arrive in source-row order, so a single ascending
  // sweep with per-column cursors reproduces the transpose's entry
  // positions exactly.
  std::vector<offset_t> perm(static_cast<std::size_t>(a.num_entries()));
  std::vector<offset_t> cursor(static_cast<std::size_t>(a.num_cols) + 1, 0);
  for (const ordinal_t col : a.entries) ++cursor[static_cast<std::size_t>(col) + 1];
  for (ordinal_t c = 0; c < a.num_cols; ++c) {
    cursor[static_cast<std::size_t>(c) + 1] += cursor[static_cast<std::size_t>(c)];
  }
  for (ordinal_t i = 0; i < a.num_rows; ++i) {
    for (offset_t j = a.row_map[i]; j < a.row_map[i + 1]; ++j) {
      perm[static_cast<std::size_t>(j)] =
          cursor[static_cast<std::size_t>(a.entries[static_cast<std::size_t>(j)])]++;
    }
  }
  return perm;
}

void transpose_numeric(const CrsMatrix& a, std::span<const offset_t> perm, CrsMatrix& t) {
  assert(perm.size() == static_cast<std::size_t>(a.num_entries()));
  assert(t.num_rows == a.num_cols && t.num_cols == a.num_rows);
  par::balanced_for(a.num_rows, a.row_map.data(), [&](ordinal_t i) {
    for (offset_t j = a.row_map[i]; j < a.row_map[i + 1]; ++j) {
      t.values[static_cast<std::size_t>(perm[static_cast<std::size_t>(j)])] =
          a.values[static_cast<std::size_t>(j)];
    }
  });
}

std::vector<scalar_t> extract_diagonal(const CrsMatrix& a) {
  std::vector<scalar_t> d(static_cast<std::size_t>(a.num_rows), 0);
  extract_diagonal(a, d);
  return d;
}

void extract_diagonal(const CrsMatrix& a, std::span<scalar_t> d) {
  assert(a.num_rows == a.num_cols);
  assert(d.size() == static_cast<std::size_t>(a.num_rows));
  par::balanced_for(a.num_rows, a.row_map.data(), [&](ordinal_t i) {
    auto cols = a.row(i);
    auto it = std::lower_bound(cols.begin(), cols.end(), i);
    d[static_cast<std::size_t>(i)] =
        (it != cols.end() && *it == i)
            ? a.values[static_cast<std::size_t>(a.row_map[i] + (it - cols.begin()))]
            : 0.0;
  });
}

std::int64_t spgemm_rows_traversed() {
  return g_rows_traversed.load(std::memory_order_relaxed);
}

void spgemm_reset_stats() { g_rows_traversed.store(0, std::memory_order_relaxed); }

}  // namespace parmis::graph
