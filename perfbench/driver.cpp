/// \file driver.cpp
/// \brief Workload runner behind `perfbench/run.py`.
///
/// Generates one workload's inputs from `--seed`, runs whole trials of it
/// for `--seconds` of wall time, checks every output, and writes the raw
/// per-call samples, per-trial counters, spans and failures as one JSON
/// object to `--out`. All statistics (medians, quartiles, tail percentile,
/// span self time, stall counts) are computed by `metrics.py`, so this
/// file only measures.
///
/// Every layer is timed from outside, around calls into its public API:
/// `core` (Mis2Handle, CoarsenHandle), `graph` (spmv, spmm, the SpGEMM row
/// counter), `multilevel` (HierarchyStats), `solver` (SolveHandle,
/// Preconditioner::apply) and `serve` (SnapshotView, Service, HandlePool).
/// The library's own tracing stays off; `--trace 1` records this file's
/// spans in memory and writes them at the end.
///
/// Usage: perfbench_driver --workload W --seed N --seconds S --trace 0|1
///                         --out FILE [--size full|tiny]

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "check/digest.hpp"
#include "check/validate.hpp"
#include "core/aggregation.hpp"
#include "core/mis2.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/spgemm.hpp"
#include "graph/spmm.hpp"
#include "graph/spmv.hpp"
#include "multilevel/builder.hpp"
#include "obs/report.hpp"
#include "parallel/context.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "solver/amg.hpp"
#include "solver/handle.hpp"
#include "solver/multivector.hpp"
#include "solver/vector_ops.hpp"

namespace pb {

using namespace parmis;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string out;
  bool tiny = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload mesh_amg|powerlaw_setup|serve_customize --seed N "
               "--seconds S --trace 0|1 --out FILE [--size full|tiny]\n",
               argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--size") {
      a.tiny = std::strcmp(v, "tiny") == 0;
    } else {
      usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || a.out.empty() || a.seconds <= 0) usage(argv[0]);
  return a;
}

/// splitmix64 finalizer: every seed-derived input goes through this, so
/// nearby seeds give unrelated inputs.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Value scale in [0.5, 2.0) for a customize, drawn from (seed, k).
double value_scale(std::uint64_t seed, std::uint64_t k) {
  return 0.5 + 1.5 * static_cast<double>(mix(seed, 0xC057 + k) >> 11) * 0x1.0p-53;
}

// ------------------------------------------------------------ recording

double now_s() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// In-memory record of everything a run measured. Samples are per call,
/// counters per trial; spans only when tracing.
class Recorder {
 public:
  bool tracing = false;
  double probe_seconds = 0;  ///< wall time spent in per-layer probes
  std::atomic<long> trial{-1};  ///< current trial id (-1 = warm-up/reference)

  void sample(const std::string& name, double v) { store(samples_, name, v); }
  void counter(const std::string& name, double v) { store(counters_, name, v); }
  void attempt(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 20) failures_.push_back(what);
    }
  }
  /// Span bookkeeping: `open` returns the span index, `close` stamps the end.
  long open(const char* name, long request) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, now_s(), 0.0, parent_, trial.load(), request});
    return static_cast<long>(spans_.size()) - 1;
  }
  void close(long idx) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(idx)].end = now_s();
  }
  /// Adds attempted/failed, the failure messages, the sample and counter
  /// series and the spans to `out`.
  void report(obs::Report& out) const;

  /// Parent span index of the calling thread (spans nest per thread).
  static thread_local long parent_;

 private:
  using Series = std::map<std::string, std::vector<double>>;
  /// A non-finite value is a failed operation and never enters a series.
  void store(Series& series, const std::string& name, double v) {
    if (!std::isfinite(v)) {
      attempt(false, "non-finite value for " + name);
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    series[name].push_back(v);
  }

  struct SpanRec {
    const char* name;
    double start, end;
    long parent, trial, request;
  };
  mutable std::mutex mu_;
  Series samples_, counters_;
  std::vector<SpanRec> spans_;
  long attempted_ = 0, failed_ = 0;
  std::vector<std::string> failures_;
};
thread_local long Recorder::parent_ = -1;

Recorder rec;

/// Times one call into a layer; when tracing, also records it as a span
/// whose parent is the innermost open span on this thread.
class Timed {
 public:
  explicit Timed(const char* name, long request = -1) : t0_(now_s()) {
    if (rec.tracing) {
      idx_ = rec.open(name, request);
      saved_parent_ = Recorder::parent_;
      Recorder::parent_ = idx_;
    }
  }
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  /// End the span now; returns the elapsed seconds (idempotent).
  double stop() {
    if (!stopped_) {
      elapsed_ = now_s() - t0_;
      stopped_ = true;
      if (idx_ >= 0) {
        rec.close(idx_);
        Recorder::parent_ = saved_parent_;
      }
    }
    return elapsed_;
  }

 private:
  double t0_;
  double elapsed_ = 0;
  bool stopped_ = false;
  long idx_ = -1;
  long saved_parent_ = -1;
};

/// A JSON array of already-rendered JSON values.
std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ',';
    out += items[i];
  }
  return out + ']';
}

void Recorder::report(obs::Report& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out.set("attempted", static_cast<std::int64_t>(attempted_));
  out.set("failed", static_cast<std::int64_t>(failed_));
  std::vector<std::string> items;
  for (const std::string& f : failures_) items.push_back('"' + obs::json_escape(f) + '"');
  out.set_raw("failures", json_array(items));
  auto series_json = [](const Series& series) {
    obs::Report r;
    for (const auto& [name, vs] : series) r.set(name, vs);
    return r.to_json();
  };
  out.set_raw("samples", series_json(samples_));
  out.set_raw("counters", series_json(counters_));
  items.clear();
  for (const SpanRec& s : spans_) {
    obs::Report r;
    r.set("name", s.name);
    r.set("start", s.start);
    r.set("end", s.end);
    r.set("parent", static_cast<std::int64_t>(s.parent));
    r.set("trial", static_cast<std::int64_t>(s.trial));
    r.set("request", static_cast<std::int64_t>(s.request));
    items.push_back(r.to_json());
  }
  out.set_raw("spans", json_array(items));
}

/// Digest witnesses: the first value seen under a key (the serial
/// reference) is the expectation every later trial must repeat.
class Witness {
 public:
  void check(const std::string& key, std::uint64_t h) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = expect_.emplace(key, h);
    rec.attempt(inserted || it->second == h,
                "digest mismatch: " + key + " " + check::digest_hex(h) + " != " +
                    check::digest_hex(it->second));
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::uint64_t> expect_;
};

Witness witness;

/// Record a solve outcome: converged with relative residual within tolerance.
void check_solve(const solver::IterResult& r, double tol, const std::string& what) {
  const bool ok = r.status == resilience::SolveStatus::Converged && r.relative_residual <= tol;
  rec.attempt(ok, what + ": status " + resilience::to_string(r.status) + " relres " +
                      std::to_string(r.relative_residual));
}

/// True relative residual ||b - A x|| / ||b||, computed independently of
/// the solver's recurrence.
double true_relres(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                   std::span<const scalar_t> x) {
  std::vector<scalar_t> r(b.begin(), b.end());
  graph::spmv(-1.0, a, x, 1.0, r);
  return solver::norm2(r) / solver::norm2(b);
}

// ------------------------------------------------------------ kernel path

/// Warm MIS-2 + Algorithm-3 aggregation handles bound to one adjacency.
struct KernelPath {
  const graph::CrsGraph& g;
  std::string key;  ///< witness-key prefix naming the input
  core::Mis2Handle mis2;
  core::CoarsenHandle coarsen;
  KernelPath(const graph::CrsGraph& adj, std::string input, const Context& ctx)
      : g(adj), key(std::move(input)), mis2(ctx), coarsen(ctx) {}

  /// `calls` warm runs of each kernel, every output digest-checked;
  /// samples are recorded when `timed`.
  void trial(int calls, bool timed) {
    const graph::GraphView gv(g);
    for (int c = 0; c < calls; ++c) {
      const core::Mis2Result* r = nullptr;
      double s = 0;
      {
        Timed t("core.mis2");
        r = &mis2.run(gv);
        s = t.stop();
      }
      witness.check(key + "mis2.in_set", check::digest(r->in_set));
      if (!timed) continue;
      rec.sample("mis2_s", s);
      rec.counter("core.mis2.rounds", r->iterations);
      rec.counter("core.mis2.set_size", static_cast<double>(r->set_size()));
      rec.sample("core.mis2.edges_per_s", static_cast<double>(g.num_entries()) / s);
    }
    for (int c = 0; c < calls; ++c) {
      const core::Aggregation* agg = nullptr;
      double s = 0;
      {
        Timed t("core.aggregate");
        agg = &coarsen.aggregate_mis2(gv);
        s = t.stop();
      }
      witness.check(key + "aggregate.labels", check::digest(agg->labels));
      if (!timed) continue;
      rec.sample("aggregate_s", s);
      rec.counter("core.aggregate.count", agg->num_aggregates);
      rec.counter("core.aggregate.rounds", agg->phase1_iterations + agg->phase2_iterations);
    }
  }

  /// One-time structural verification of the current outputs (the digests
  /// then carry validity to every trial that repeats them).
  void verify() {
    const graph::GraphView gv(g);
    rec.attempt(core::verify_mis2(gv, mis2.result().in_set),
                key + "MIS-2 fails core::verify_mis2");
    const check::Result res = check::validate(coarsen.aggregation(), g.num_rows);
    rec.attempt(static_cast<bool>(res), key + "aggregation invalid: " + res.diagnostic());
  }
};

// ------------------------------------------------------------ solve path

constexpr double kTol = 1e-8;
constexpr int kBatch = 8;
constexpr int kSingleSolves = 4;
constexpr int kKernelCalls = 3;  ///< warm MIS-2 / aggregation calls per trial
/// serve_customize traffic. One customize per 64 requests is the mix the
/// customize cells of bench/serve_replay replay (64 requests, one swap).
/// A trial's loop serves four epochs of 64 requests. The uncontended
/// requests and waves run after the loop, so their counts set only how
/// many solve_s / batch_solve_s samples a trial yields.
constexpr std::size_t kServeRequests = 256;  ///< closed-loop requests per trial
constexpr std::size_t kServeInterval = 64;   ///< requests per customize
constexpr std::size_t kSoloRequests = 16;    ///< uncontended served requests per trial
constexpr std::size_t kWaves = 3;            ///< K=8 served waves per trial

/// Cold cg+amg setup, warm single-RHS solves, one K=8 solve_batch and one
/// value-only customize (warm AMG rebuild) on one matrix.
struct SolvePath {
  const graph::CrsMatrix& a;
  graph::CrsMatrix a_scaled;  ///< same structure, seed-scaled values
  Context ctx;
  std::string key;  ///< witness-key prefix naming the input
  /// Prefix of the end-to-end sample names: empty when this path is the
  /// workload, "probe." when it probes the layers under another path.
  std::string tag;
  std::vector<std::vector<scalar_t>> rhs;  ///< kBatch right-hand sides
  std::vector<scalar_t> bm, xm, x, r, z;

  SolvePath(const graph::CrsMatrix& mat, std::string input, const Context& c,
            std::uint64_t seed, std::string prefix = "")
      : a(mat), a_scaled(mat), ctx(c), key(std::move(input)), tag(std::move(prefix)) {
    const double s = value_scale(seed, 0);
    for (scalar_t& v : a_scaled.values) v *= s;
    const std::size_t n = static_cast<std::size_t>(a.num_rows);
    for (int j = 0; j < kBatch; ++j) {
      rhs.push_back(solver::random_vector(a.num_rows, mix(seed, 0xB000 + j)));
    }
    bm.resize(n * kBatch);
    xm.resize(n * kBatch);
    for (std::size_t i = 0; i < n; ++i) {
      for (int j = 0; j < kBatch; ++j) bm[i * kBatch + j] = rhs[static_cast<std::size_t>(j)][i];
    }
    x.resize(n);
    r.resize(n);
    z.resize(n);
  }

  /// One trial on a fresh handle: cold setup; one untimed solve and batch
  /// to size scratch; then warm single-RHS solves, one K=8 block-CG batch,
  /// the per-layer probes (`probes`), and a value-only customize. Samples
  /// are recorded when `timed` (false for the serial reference and the
  /// warm-up).
  void trial(bool timed, bool probes) {
    solver::IterOptions io;
    io.tolerance = kTol;
    solver::SolveHandle h("cg", "amg", ctx);
    graph::spgemm_reset_stats();
    double setup_s = 0;
    {
      Timed t("solver.setup");
      h.setup(a);
      setup_s = t.stop();
    }
    const auto* amg = dynamic_cast<const solver::AmgHierarchy*>(h.preconditioner());
    rec.attempt(amg != nullptr, "cg+amg handle has no AMG preconditioner");
    if (amg == nullptr) return;
    if (timed) record_setup(setup_s, amg->hierarchy_stats());

    solver::fill(x, 0.0);
    check_solve(h.solve(a, rhs[0], x, io), kTol, "first solve");
    if (!timed) {
      const double tr = true_relres(a, rhs[0], x);
      rec.attempt(tr <= 10 * kTol, "true residual " + std::to_string(tr));
    }
    batch(h, io);

    // Warm single-RHS solves: no scratch growth and no preconditioner
    // rebuild is allowed from here on.
    const solver::SolveStats before = h.stats();
    for (int j = 0; j < kSingleSolves; ++j) {
      solver::fill(x, 0.0);
      double s = 0;
      const solver::IterResult* res = nullptr;
      {
        Timed t("solver.solve");
        res = &h.solve(a, rhs[static_cast<std::size_t>(j)], x, io);
        s = t.stop();
      }
      check_solve(*res, kTol, "solve rhs " + std::to_string(j));
      witness.check(key + "solve.x." + std::to_string(j), check::digest(x));
      if (timed) {
        rec.sample(tag + "solve_s", s);
        rec.sample(tag + "solves_per_s", 1.0 / s);
        rec.sample(tag + "latency_ms", s * 1e3);
        rec.counter(tag + "iterations", res->iterations);
        rec.sample("solver.iteration_s", s / std::max(1, res->iterations));
      }
    }
    const double bs = batch(h, io);
    if (timed) {
      rec.sample(tag + "batch_solve_s", bs);
      rec.counter("solver.scratch_grows",
                  static_cast<double>(h.stats().scratch_grows - before.scratch_grows));
      rec.counter("solver.prec_setups",
                  static_cast<double>(h.stats().prec_setups - before.prec_setups));
    }
    if (probes) probe_kernels(h);

    // Value-only customize: warm rebuild of the hierarchy against
    // seed-scaled values, then one solve on the scaled operator.
    std::unique_ptr<solver::Preconditioner> p = h.release_preconditioner();
    auto* hier = dynamic_cast<solver::AmgHierarchy*>(p.get());
    double cs = 0;
    {
      Timed t("solver.customize");
      hier->rebuild(a_scaled);
      cs = t.stop();
    }
    if (timed) rec.sample(tag + "customize_s", cs);
    h.adopt_preconditioner(std::move(p), a_scaled);
    solver::fill(x, 0.0);
    {
      Timed t("solver.solve");
      check_solve(h.solve(a_scaled, rhs[0], x, io), kTol, "solve after customize");
    }
    witness.check(key + "customize.x", check::digest(x));
  }

  /// One K-wide block-CG batch; column c must equal the single solve of
  /// rhs c bit for bit. Returns its wall time.
  double batch(solver::SolveHandle& h, const solver::IterOptions& io) {
    h.set_solver("block-cg");
    solver::fill(xm, 0.0);
    double bs = 0;
    const solver::BatchResult* br = nullptr;
    {
      Timed t("solver.solve_batch");
      br = &h.solve_batch(a, bm, xm, kBatch, io);
      bs = t.stop();
    }
    h.set_solver("cg");
    for (int c = 0; c < kBatch; ++c) {
      check_solve(br->results[static_cast<std::size_t>(c)], kTol,
                  "batch column " + std::to_string(c));
      solver::gather_column(std::span<const scalar_t>(xm), a.num_rows, kBatch, c, x);
      witness.check(key + "solve.x." + std::to_string(c), check::digest(x));
    }
    return bs;
  }

  /// Setup decomposition from the hierarchy's own telemetry.
  void record_setup(double setup_s, const multilevel::HierarchyStats& hs) {
    rec.sample(tag + "setup_s", setup_s);
    rec.counter("graph.spgemm.rows_traversed",
                static_cast<double>(graph::spgemm_rows_traversed()));
    rec.sample("multilevel.aggregation_s", hs.aggregation_seconds);
    rec.sample("multilevel.galerkin_s", hs.build_seconds - hs.aggregation_seconds);
    rec.counter("multilevel.levels", hs.levels);
    double nnz = 0, density = 0;
    for (std::size_t l = 0; l < hs.level_entries.size(); ++l) {
      nnz += static_cast<double>(hs.level_entries[l]);
      if (l + 1 < hs.level_entries.size() && hs.level_rows[l] > 0) {
        const double rows = static_cast<double>(hs.level_rows[l]);
        density = std::max(density, static_cast<double>(hs.level_entries[l]) / (rows * rows));
      }
    }
    rec.counter("multilevel.level_nnz", nnz);
    rec.counter("multilevel.operator_complexity", hs.operator_complexity);
    rec.counter("multilevel.max_coarse_density", density);
  }

  /// Per-layer probes: direct spmv, K=8 spmm and V-cycle calls on the
  /// handle's operator, under the workload's context. Their wall time is
  /// kept out of the tracing-overhead comparison.
  void probe_kernels(const solver::SolveHandle& h) {
    const double t0 = now_s();
    const Context::Scope scope(ctx);
    const std::size_t n = static_cast<std::size_t>(a.num_rows);
    const double nnz = static_cast<double>(a.num_entries());
    // Computed bytes per call: CRS arrays once (8 B value + 4 B column +
    // 8 B row offset per row) plus x read and y written.
    const double crs_bytes = nnz * 12.0 + static_cast<double>(n + 1) * 8.0;
    for (int i = 0; i < 10; ++i) {
      Timed t("graph.spmv");
      graph::spmv(a, rhs[0], r);
      rec.sample("graph.spmv_s", t.stop());
    }
    rec.counter("graph.spmv_computed_bytes", crs_bytes + 2.0 * 8.0 * static_cast<double>(n));
    for (int i = 0; i < 3; ++i) {
      Timed t("graph.spmm");
      graph::spmm(a, bm, xm, kBatch);
      rec.sample("graph.spmm_s", t.stop());
    }
    rec.counter("graph.spmm_computed_bytes", crs_bytes + 2.0 * 8.0 * kBatch * static_cast<double>(n));
    for (int i = 0; i < 5; ++i) {
      Timed t("solver.prec_apply");
      h.preconditioner()->apply(rhs[0], z);
      rec.sample("solver.prec_apply_s", t.stop());
    }
    rec.probe_seconds += now_s() - t0;
  }
};

// ------------------------------------------------------------ serve path

/// Owns a `serve::Service` (neither copyable nor movable) built from a
/// factory's prvalue, so a trial can construct it inside a timed scope.
struct ServiceBox {
  serve::Service svc;
  template <typename F>
  explicit ServiceBox(F&& make) : svc(make()) {}
};

struct ServePath {
  const graph::CrsMatrix& a;
  std::string snap_path;
  std::uint64_t seed;
  std::size_t requests;   ///< requests per trial
  std::size_t interval;   ///< one customize every `interval` requests
  int clients;

  serve::Service::Options options() const {
    serve::Service::Options o;
    o.pool.solver = "cg";
    o.pool.prec = "amg";
    o.pool.size = 4;  // HandlePool default: serial-context entries
    o.iter.tolerance = kTol;
    return o;
  }

  /// Request i of a trial: rhs seeded from (seed, i), pinned to the epoch
  /// published by the (i / interval)-th customize.
  serve::ServeRequest request(std::uint64_t base, std::size_t i) const {
    serve::ServeRequest q;
    q.id = i;
    q.rhs_seed = mix(seed, 0x5E00 + i);
    q.epoch = base + i / interval;
    return q;
  }

  /// One trial: open the snapshot, stand up the service, drive a closed
  /// loop of `nclients` blocking clients (client 0 also customizes), then
  /// uncontended single-client requests and one K=8 batched wave on the
  /// final epoch. Samples are recorded when `timed`.
  void trial(int nclients, bool timed) {
    std::unique_ptr<serve::SnapshotView> snap;
    std::unique_ptr<ServiceBox> box;
    double setup_s = 0;
    {
      Timed t("serve.setup");
      {
        Timed o("serve.snapshot_open");
        snap = std::make_unique<serve::SnapshotView>(serve::SnapshotView::open(snap_path));
      }
      {
        Timed o("serve.from_snapshot");
        box = std::make_unique<ServiceBox>(
            [&] { return serve::Service::from_snapshot(options(), *snap); });
      }
      setup_s = t.stop();
    }
    serve::Service* svc = &box->svc;
    if (timed) rec.sample("setup_s", setup_s);

    const std::uint64_t base = svc->epoch();
    const std::size_t last_epoch = (requests - 1) / interval;
    std::vector<serve::RequestOutcome> outcomes(requests);
    std::vector<double> latency(requests, 0.0);
    std::atomic<std::size_t> next{0};
    std::size_t published = 0;  // written by client 0 only
    std::atomic<bool> broken{false};

    auto customize_to = [&](std::size_t target) {
      while (published < target) {
        std::vector<scalar_t> vals(a.values);
        const double s = value_scale(seed, published + 1);
        for (scalar_t& v : vals) v *= s;
        Timed t("serve.customize");
        const std::uint64_t e = svc->customize(vals);
        const double cs = t.stop();
        ++published;
        rec.attempt(e == base + published, "customize published an unexpected epoch");
        if (timed) rec.sample("customize_s", cs);
      }
    };
    auto client = [&](int cid) {
      try {
        for (;;) {
          if (cid == 0) customize_to(std::min(last_epoch, next.load() / interval));
          const std::size_t i = next.fetch_add(1);
          if (i >= requests) break;
          if (cid == 0) customize_to(i / interval);
          Timed t("serve.request", static_cast<long>(i));
          outcomes[i] = svc->solve(request(base, i));
          latency[i] = t.stop();
        }
        if (cid == 0) customize_to(last_epoch);
      } catch (const std::exception& e) {
        rec.attempt(false, std::string("request threw: ") + e.what());
        broken = true;
        // Unblock anyone waiting on an epoch this client would publish.
        if (cid == 0) {
          try {
            while (svc->epoch() < base + last_epoch) (void)svc->republish();
          } catch (...) {
          }
        }
      }
    };

    const double t0 = now_s();
    {
      Timed loop("serve.loop");
      const long loop_span = Recorder::parent_;
      std::vector<std::thread> threads;
      for (int c = 1; c < nclients; ++c) {
        threads.emplace_back([&, c] {
          Recorder::parent_ = loop_span;  // client spans nest under the loop
          client(c);
        });
      }
      client(0);
      for (std::thread& th : threads) th.join();
    }
    const double wall = now_s() - t0;
    if (broken) return;

    std::uint64_t combined = check::kFnvBasis;
    for (std::size_t i = 0; i < requests; ++i) {
      const serve::RequestOutcome& o = outcomes[i];
      rec.attempt(o.status == resilience::SolveStatus::Converged && o.relative_residual <= kTol &&
                      o.epoch == base + i / interval,
                  "request " + std::to_string(i) + ": status " +
                      resilience::to_string(o.status) + " epoch " + std::to_string(o.epoch));
      combined = check::digest_combine(combined, static_cast<std::uint64_t>(o.status));
      combined = check::digest_combine(combined, o.solution_digest);
      if (timed) {
        rec.sample("latency_ms", latency[i] * 1e3);
        rec.counter("iterations", o.iterations);
      }
    }
    witness.check("serve.combined", combined);
    if (timed) {
      rec.sample("solves_per_s", static_cast<double>(requests) / wall);
      rec.sample("serve.loop_s", wall);
    }

    // Uncontended requests: one client, nothing else running.
    auto final_epoch_request = [&](std::size_t i) {
      serve::ServeRequest q = request(base, i);
      q.epoch = base + last_epoch;
      return q;
    };
    std::uint64_t solo_digest = check::kFnvBasis;
    for (std::size_t k = 0; k < kSoloRequests; ++k) {
      double s = 0;
      serve::RequestOutcome o;
      {
        Timed t("serve.request", static_cast<long>(requests + k));
        o = svc->solve(final_epoch_request(requests + k));
        s = t.stop();
      }
      rec.attempt(o.status == resilience::SolveStatus::Converged && o.relative_residual <= kTol,
                  "uncontended request: status " + std::string(resilience::to_string(o.status)));
      solo_digest = check::digest_combine(solo_digest, o.solution_digest);
      if (timed) rec.sample("solve_s", s);
    }
    witness.check("serve.solo", solo_digest);

    // K=8 waves through the batched serve path.
    for (std::size_t w = 0; w < kWaves; ++w) {
      std::vector<serve::ServeRequest> wave;
      for (std::size_t c = 0; c < kBatch; ++c) {
        wave.push_back(final_epoch_request(requests + kSoloRequests + w * kBatch + c));
      }
      std::vector<serve::RequestOutcome> wo;
      double bs = 0;
      {
        Timed t("serve.solve_batch");
        wo = svc->solve_batch(wave, kBatch);
        bs = t.stop();
      }
      std::uint64_t wave_digest = check::kFnvBasis;
      for (const serve::RequestOutcome& o : wo) {
        rec.attempt(o.status == resilience::SolveStatus::Converged && o.relative_residual <= kTol,
                    "batched request: status " + std::string(resilience::to_string(o.status)));
        wave_digest = check::digest_combine(wave_digest, o.solution_digest);
      }
      witness.check("serve.wave." + std::to_string(w), wave_digest);
      if (timed) rec.sample("batch_solve_s", bs);
    }
    if (timed) {
      const serve::PoolStats ps = svc->pool().stats();
      rec.counter("serve.pool.warm_hit_ratio",
                  ps.acquires ? static_cast<double>(ps.warm_hits) / static_cast<double>(ps.acquires)
                              : 0.0);
      rec.counter("serve.pool.level_adoptions", static_cast<double>(ps.level_adoptions));
      rec.counter("serve.pool.prec_builds", static_cast<double>(ps.prec_builds));
      rec.counter("serve.pool.evictions", static_cast<double>(ps.evictions));
      rec.counter("serve.epochs_published", static_cast<double>(svc->epoch() - base));
    }
  }
};

// ------------------------------------------------------------ provenance

const char* backend_name(par::Backend b) { return b == par::Backend::OpenMP ? "openmp" : "serial"; }

const char* schedule_name(par::Schedule s) {
  switch (s) {
    case par::Schedule::Static: return "static";
    case par::Schedule::EdgeBalanced: return "edge_balanced";
    case par::Schedule::Dynamic: return "dynamic";
  }
  return "?";
}

bool check_build() {
#ifdef PARMIS_CHECK_INVARIANTS
  return true;
#else
  return false;
#endif
}

std::string sanitizers() {
  std::string s = PERFBENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  if (s.empty()) s = "compiler-detected";
#endif
  return s;
}

obs::Report provenance(const Args& args, const Context& ctx) {
  const Context::Validation v = ctx.validate();
  obs::Report p;
  p.set("cores", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  p.set("threads", v.effective_threads);
  p.set("backend", backend_name(v.effective));
  p.set("schedule", schedule_name(ctx.schedule));
  p.set("compiler", std::string(PERFBENCH_COMPILER) + " (" + __VERSION__ + ")");
  p.set("build_type", PERFBENCH_BUILD_TYPE);
  p.set("check_invariants", check_build());
  p.set("sanitize", sanitizers());
  p.set("workload", args.workload);
  p.set("seed", static_cast<std::uint64_t>(args.seed));
  p.set("size", args.tiny ? "tiny" : "full");
  return p;
}

// ------------------------------------------------------------ main loop

/// The measured window: trials until `seconds` of wall time have passed
/// (at least 2). `begin(g)` readies input g outside any trial; an input
/// serves `per_input` trials (0 = all of them) before the next is readied.
/// With `--trace 1` trials alternate untraced/traced; their wall times
/// without the per-layer probes, compared, give the tracing overhead.
template <typename BeginFn, typename TrialFn>
void run_trials(const Args& args, long per_input, BeginFn&& begin, TrialFn&& trial) {
  const double t_end = now_s() + args.seconds;
  long id = 0;
  for (int g = 0; id < 2 || now_s() < t_end; ++g) {
    begin(g);
    for (long c = 0; (per_input == 0 || c < per_input) && (id < 2 || now_s() < t_end); ++c) {
      const bool traced = args.trace && c % 2 == 1;
      rec.tracing = traced;
      rec.trial = id++;
      Timed t("trial");
      const double t0 = now_s();
      const double p0 = rec.probe_seconds;
      trial(traced);
      rec.sample(traced ? "trace.trial_traced_s" : "trace.trial_untraced_s",
                 now_s() - t0 - (rec.probe_seconds - p0));
    }
  }
  rec.tracing = false;
}

/// One generated input: the operator and its loop-free adjacency.
struct Input {
  graph::CrsMatrix a;
  graph::CrsGraph adj;
  std::string key;  ///< witness-key prefix
};

/// Input `g` of the workload, generated from the seed. powerlaw_setup
/// draws a new graph for every `g`, so one run's medians cover the
/// generator's spread; the other workloads have one input.
Input make_input(const Args& args, int g) {
  graph::CrsMatrix a;
  if (args.workload == "mesh_amg") {
    // Graph Laplacian + I of the 7-point grid (what `gen:laplace3d:NX`
    // means for the solver drivers).
    const ordinal_t nx = args.tiny ? 12 : 64;
    const graph::CrsMatrix grid = graph::laplace3d(nx, nx, nx);
    a = graph::laplacian_matrix(graph::GraphView(graph::remove_self_loops(grid)), 1.0);
  } else if (args.workload == "powerlaw_setup") {
    const ordinal_t n = args.tiny ? 2000 : 25000;
    const graph::CrsGraph pl =
        graph::power_law_graph(n, 2.2, 4, std::max<ordinal_t>(64, n / 60),
                               mix(args.seed, 0x9071 + static_cast<std::uint64_t>(g)));
    a = graph::laplacian_matrix(graph::GraphView(pl), 1.0);
  } else {
    const ordinal_t nx = args.tiny ? 8 : 24;
    a = graph::laplace3d(nx, nx, nx);
  }
  graph::CrsGraph adj = graph::remove_self_loops(graph::GraphView(a));
  rec.counter("input.rows", a.num_rows);
  rec.counter("input.nnz", static_cast<double>(a.num_entries()));
  return {std::move(a), std::move(adj), "g" + std::to_string(g) + "."};
}

/// mesh_amg / powerlaw_setup: the kernel and solve paths under one
/// 4-thread context.
void run_compute(const Args& args, const Context& ctx) {
  const Context serial = Context::serial();
  const bool fresh_graphs = args.workload == "powerlaw_setup";
  std::unique_ptr<Input> in;
  std::unique_ptr<KernelPath> kernel;
  std::unique_ptr<SolvePath> path;
  auto begin = [&](int g) {
    path.reset();
    kernel.reset();
    in = std::make_unique<Input>(make_input(args, g));
    // Serial reference of the kernels defines their expected digests.
    {
      KernelPath ref(in->adj, in->key, serial);
      ref.trial(1, false);
      ref.verify();
    }
    kernel = std::make_unique<KernelPath>(in->adj, in->key, ctx);
    kernel->trial(1, false);
    path = std::make_unique<SolvePath>(in->a, in->key, ctx, args.seed);
  };
  // First input: serial reference of the solve path, then one untimed
  // trial to warm the thread team, caches and lazy setup.
  begin(0);
  SolvePath(in->a, in->key, serial, args.seed).trial(false, false);
  path->trial(false, false);
  run_trials(
      args, fresh_graphs ? (args.trace ? 2 : 1) : 0,
      [&](int g) {
        if (g > 0) begin(g);
      },
      [&](bool traced) {
        kernel->trial(kKernelCalls, true);
        path->trial(true, traced);
      });
}

/// serve_customize: 4 blocking clients over the serving runtime.
void run_serve(const Args& args) {
  const Context serial = Context::serial();
  const Input in = make_input(args, 0);
  const std::string snap_path = args.out + ".snap";
  // Offline: build the hierarchy once and write the snapshot.
  {
    multilevel::Options mo;
    mo.complexity_cap = 10.0;
    mo.min_coarse_size = 500;
    mo.ctx = serial;
    const multilevel::Builder builder(mo);
    multilevel::HierarchyHandle h;
    (void)builder.build_galerkin(in.a, h);
    serve::save_snapshot(snap_path, in.a, &h);
  }
  ServePath sp{in.a, snap_path, args.seed, args.tiny ? 32u : kServeRequests,
               args.tiny ? 16u : kServeInterval, 4};
  KernelPath kernel(in.adj, in.key, serial);
  kernel.trial(1, false);
  kernel.verify();
  // Serial reference (one client) defines the digests. Then a warm-up.
  sp.trial(1, false);
  sp.trial(sp.clients, false);
  // The solve-stack layers under the service (what one pool entry runs),
  // probed directly on the same operator in traced trials.
  SolvePath probe(in.a, in.key, serial, args.seed, "probe.");
  run_trials(
      args, 0, [](int) {},
      [&](bool traced) {
        kernel.trial(kKernelCalls, true);
        sp.trial(sp.clients, true);
        if (traced) {
          const double t0 = now_s();
          const double p0 = rec.probe_seconds;
          probe.trial(true, true);
          rec.probe_seconds = p0 + (now_s() - t0);
        }
      });
  std::remove(snap_path.c_str());
}

int run(const Args& args) {
  const int threads = std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  const bool serve_wl = args.workload == "serve_customize";
  if (!serve_wl && args.workload != "mesh_amg" && args.workload != "powerlaw_setup") {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Context ctx = serve_wl ? Context::serial() : Context::openmp(threads);
  if (serve_wl) {
    run_serve(args);
  } else {
    run_compute(args, ctx);
  }

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  rec.sample("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);

  obs::Report out;
  out.set_raw("provenance", provenance(args, ctx).to_json());
  rec.report(out);
  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  const std::string json = out.to_json();
  const bool written = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && written ? 0 : 2;
}

}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::run(pb::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
