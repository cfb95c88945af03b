// The four kernel workloads (fib, nqueens-msg, sparselu-deps, graph-replay)
// and the run loop they share: set-up, the timed window, the traced window,
// the region probe and the serial / lomp references.
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bots/fib.hpp"
#include "bots/graph_workloads.hpp"
#include "bots/nqueens.hpp"
#include "bots/serial_ctx.hpp"
#include "bots/sparselu.hpp"
#include "core/runtime.hpp"
#include "core/task_graph.hpp"
#include "e2e.hpp"
#include "gomp/lomp_runtime.hpp"
#include "ledger.hpp"
#include "registry/registry.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

namespace bots = xtask::bots;
using xtask::Runtime;
using xtask::TaskContext;
using xtask::TaskGraph;
using xtask::lomp::LompContext;
using xtask::lomp::LompRuntime;

constexpr int kSetupReps = 5;     // set-ups per plain run; setup_s is their median
constexpr int kWarmupSolves = 5;  // per set-up
constexpr int kRegionProbes = 1000;

// dlb=adaptive with the dispatch mode pinned to messaging. Direct mode,
// which dmode=auto picks for this 4-worker team, has no workload yet: its
// steals race in BQueue::pop_batch, which trusts a push count that a
// concurrent scalar pop has already overtaken and then reads empty slots.
// graph-replay crashes on it within seconds, fib about once in 400 s.
constexpr const char* kAdaptiveSpec =
    "xtask:dlb=adaptive,dmode=messaging,threads=4";

/// One kernel: a problem, the runtime spec that solves it, and the same
/// problem on the references. Every solve_* stores its result for check().
class Kernel {
 public:
  virtual ~Kernel() = default;
  virtual std::string spec() const = 0;  // the seed is appended
  /// Per-runtime set-up: input generation, graph record.
  virtual void setup(Runtime&) {}
  /// Untimed, before every solve of any kind.
  virtual void prepare() {}
  virtual void solve(Runtime& rt) = 0;
  virtual void solve_traced(Runtime& rt, Ledger& ledger) = 0;
  virtual void solve_serial() = 0;
  virtual void solve_lomp(LompRuntime& rt) = 0;
  /// Untimed: did the last solve produce the right answer?
  virtual bool check() = 0;
  /// Workload-specific per-layer metrics.
  virtual void layer_metrics(Result&, double /*p50_ms*/,
                             const xtask::Counters& /*delta*/) const {}
};

// --- fib ---------------------------------------------------------------------

class FibKernel final : public Kernel {
 public:
  std::string spec() const override { return kAdaptiveSpec; }
  void solve(Runtime& rt) override { got_ = bots::fib_parallel(rt, kN, 0); }
  void solve_traced(Runtime& rt, Ledger& ledger) override {
    got_ = -1;
    rt.run([&](TaskContext& c) {
      ledger.body(c, 0, [&] {
        TracedCtx t(c, ledger);
        bots::fib_task(t, kN, 0, &got_);
      });
    });
  }
  void solve_serial() override { got_ = bots::fib_serial(n_); }
  void solve_lomp(LompRuntime& rt) override {
    got_ = bots::fib_parallel(rt, kN, 0);
  }
  bool check() override { return got_ == want_; }

 private:
  // n = 20: a taskwait that helps runs other tasks on its own stack, so the
  // nesting grows with the tasks in flight. fib(21) overflows a 2 MB stack
  // in messaging mode; fib(20) stays under 2 MB of the 8 MB default.
  static constexpr int kN = 20;
  volatile int n_ = kN;  // keeps the serial reference from being folded
  const long want_ = bots::fib_serial(kN);
  long got_ = -1;
};

// --- nqueens-msg -------------------------------------------------------------

class NQueensKernel final : public Kernel {
 public:
  NQueensKernel() {
    if (bots::nqueens_serial(kN) != kSolutions)
      throw std::logic_error("nqueens_serial(10) != 724");
  }
  std::string spec() const override {
    return "xtask:dlb=naws,tint=128,threads=4";
  }
  void solve(Runtime& rt) override {
    got_ = bots::nqueens_parallel(rt, kN, kCutoff);
  }
  void solve_traced(Runtime& rt, Ledger& ledger) override {
    std::atomic<long> total{0};
    rt.run([&](TaskContext& c) {
      ledger.body(c, 0, [&] {
        TracedCtx t(c, ledger);
        std::array<signed char, bots::detail::kMaxQueens> cols{};
        bots::detail::nqueens_task(t, cols, kN, 0, kCutoff, &total);
      });
    });
    got_ = total.load();
  }
  void solve_serial() override { got_ = bots::nqueens_serial(n_); }
  void solve_lomp(LompRuntime& rt) override {
    got_ = bots::nqueens_parallel(rt, kN, kCutoff);
  }
  bool check() override { return got_ == kSolutions; }

 private:
  // n = 10, not 11: see README.md (deep help-first taskwait recursion).
  static constexpr int kN = 10;
  static constexpr int kCutoff = 3;
  static constexpr long kSolutions = 724;
  volatile int n_ = kN;
  long got_ = -1;
};

// --- sparselu-deps -----------------------------------------------------------

class SparseLuKernel final : public Kernel {
 public:
  // The block pattern comes from the library's fixed pattern seed, so every
  // --seed does the same work; --seed picks the values (see scale()).
  explicit SparseLuKernel(std::uint64_t seed) : seed_(seed) {
    p_.blocks = 24;
    p_.block_size = 32;
    bots::SparseMatrix ref(p_, /*fill=*/true);
    scale(ref);
    bots::SerialContext sc;
    bots::detail::sparselu_task(sc, &ref);
    want_ = ref.checksum();
  }
  std::string spec() const override { return kAdaptiveSpec; }
  void setup(Runtime&) override {
    m_ = std::make_unique<bots::SparseMatrix>(p_, /*fill=*/true);
    bots::sparselu_prefill(m_.get());
  }
  // The factorization works in place: restore the input. Fill-in blocks
  // stay allocated (zeroed), so every solve sees one block layout.
  void prepare() override {
    m_->refill();
    scale(*m_);
  }
  void solve(Runtime& rt) override {
    rt.run([&](TaskContext& ctx) {
      bots::sparselu_dep_build(
          m_.get(), [&ctx](auto&& f, std::initializer_list<xtask::Dep> deps) {
            ctx.spawn(std::forward<decltype(f)>(f), deps);
          });
    });
  }
  void solve_traced(Runtime& rt, Ledger& ledger) override {
    rt.run([&](TaskContext& ctx) {
      ledger.body(ctx, 0, [&] {
        bots::sparselu_dep_build(
            m_.get(), [&](auto&& f, std::initializer_list<xtask::Dep> deps) {
              ledger.spawn_deps(ctx, std::forward<decltype(f)>(f), deps);
            });
      });
    });
  }
  // The references run the taskwait formulation (lomp has no dependences).
  void solve_serial() override {
    bots::SerialContext sc;
    bots::detail::sparselu_task(sc, m_.get());
  }
  void solve_lomp(LompRuntime& rt) override {
    rt.run([&](LompContext& c) { bots::detail::sparselu_task(c, m_.get()); });
  }
  bool check() override { return m_->checksum() == want_; }

 private:
  // Off-diagonal blocks times a seeded factor in [0.5, 1): diagonal
  // dominance only improves, so no input needs pivoting. One draw per
  // block position, present or not, so lazily and eagerly filled matrices
  // get the same factors.
  void scale(bots::SparseMatrix& m) const {
    xtask::XorShift rng(seed_);
    const int bs2 = m.bs() * m.bs();
    for (int i = 0; i < m.blocks(); ++i)
      for (int j = 0; j < m.blocks(); ++j) {
        const double f = 0.5 + 0.5 * rng.uniform();
        double* b = m.block(i, j);
        if (i == j || b == nullptr) continue;
        for (int e = 0; e < bs2; ++e) b[e] *= f;
      }
  }

  std::uint64_t seed_;
  bots::SparseLuParams p_;
  double want_ = 0.0;
  std::unique_ptr<bots::SparseMatrix> m_;
};

// --- graph-replay ------------------------------------------------------------

/// bench_graph's request pipeline: kLayers x kWidth stages, each stage
/// reading every output of the previous layer. Per-node run counters prove
/// every node ran exactly once per replay.
struct Pipeline {
  static constexpr int kLayers = 16;
  static constexpr int kWidth = 16;
  static constexpr int kNodes = kLayers * kWidth;

  std::vector<double> slots = std::vector<double>(kNodes, 0.0);  // dep tokens
  std::unique_ptr<std::atomic<std::uint32_t>[]> runs{
      new std::atomic<std::uint32_t>[kNodes]()};
  std::uint32_t expected = 0;  // runs every node should have by now

  /// Record the DAG; make_body(counter) gives node `counter`'s body.
  template <typename MakeBody>
  TaskGraph record(MakeBody&& make_body) {
    return TaskGraph::record([&](TaskGraph::Capture& cap) {
      std::vector<xtask::Dep> deps;
      for (int l = 0; l < kLayers; ++l)
        for (int w = 0; w < kWidth; ++w) {
          deps.clear();
          if (l > 0)
            for (int p = 0; p < kWidth; ++p)
              deps.push_back(xtask::din(&slots[(l - 1) * kWidth + p]));
          deps.push_back(xtask::dout(&slots[l * kWidth + w]));
          cap.node(make_body(&runs[l * kWidth + w]), deps.data(), deps.size());
        }
    });
  }

  bool all_ran() const {
    for (int i = 0; i < kNodes; ++i)
      if (runs[i].load(std::memory_order_relaxed) != expected) return false;
    return true;
  }
};

class GraphKernel final : public Kernel {
 public:
  static constexpr int kReplays = 20;  // one solve = TaskGraph::replay(rt, 20)

  std::string spec() const override { return kAdaptiveSpec; }
  void setup(Runtime&) override {
    plain_ = std::make_unique<Pipeline>();
    graph_ = plain_->record([](std::atomic<std::uint32_t>* c) {
      return [c](TaskContext&) { c->fetch_add(1, std::memory_order_relaxed); };
    });
    if (graph_.num_nodes() != Pipeline::kNodes || graph_.num_edges() != kEdges)
      throw std::logic_error("pipeline graph has the wrong shape");
  }
  void solve(Runtime& rt) override {
    graph_.replay(rt, kReplays);
    plain_->expected += kReplays;
    last_ = plain_.get();
  }
  void solve_traced(Runtime& rt, Ledger& ledger) override {
    if (!traced_) {  // the sampled solve comes first and pays for this
      traced_ = std::make_unique<Pipeline>();
      traced_graph_ = traced_->record([&ledger](std::atomic<std::uint32_t>* c) {
        return [c, l = &ledger](TaskContext& ctx) {
          l->body(ctx, 0,
                  [c] { c->fetch_add(1, std::memory_order_relaxed); });
        };
      });
    }
    traced_graph_.replay(rt, kReplays);
    traced_->expected += kReplays;
    last_ = traced_.get();
  }
  // Serial: the same node bodies in capture (topological) order.
  void solve_serial() override {
    for (int r = 0; r < kReplays; ++r)
      for (int i = 0; i < Pipeline::kNodes; ++i)
        ref_.runs[i].fetch_add(1, std::memory_order_relaxed);
    ref_.expected += kReplays;
    last_ = &ref_;
  }
  // lomp has no dependences: every layer depends on the whole previous
  // one, so a taskwait per layer expresses the same DAG.
  void solve_lomp(LompRuntime& rt) override {
    rt.run([&](LompContext& c) {
      for (int r = 0; r < kReplays; ++r)
        for (int l = 0; l < Pipeline::kLayers; ++l) {
          for (int w = 0; w < Pipeline::kWidth; ++w) {
            std::atomic<std::uint32_t>* cnt =
                &ref_.runs[l * Pipeline::kWidth + w];
            c.spawn([cnt](LompContext&) {
              cnt->fetch_add(1, std::memory_order_relaxed);
            });
          }
          c.taskwait();
        }
    });
    ref_.expected += kReplays;
    last_ = &ref_;
  }
  bool check() override { return last_ != nullptr && last_->all_ran(); }

  void layer_metrics(Result& r, double p50_ms,
                     const xtask::Counters& d) const override {
    r.set("core.graph.replay_us_p50", p50_ms * 1e3 / kReplays);
    r.set("core.graph.nodes_per_s",
          ratio(Pipeline::kNodes * kReplays, p50_ms * 1e-3));
    r.set("core.graph.edges_released_per_replay",
          ratio(static_cast<double>(d.ngraph_edges_released),
                static_cast<double>(d.ngraph_replays)));
  }

 private:
  static constexpr std::uint32_t kEdges =
      (Pipeline::kLayers - 1) * Pipeline::kWidth * Pipeline::kWidth;
  std::unique_ptr<Pipeline> plain_, traced_;
  Pipeline ref_;
  TaskGraph graph_, traced_graph_;
  Pipeline* last_ = nullptr;
};

std::unique_ptr<Kernel> make_kernel(const std::string& name,
                                    std::uint64_t seed) {
  if (name == "fib") return std::make_unique<FibKernel>();
  if (name == "nqueens-msg") return std::make_unique<NQueensKernel>();
  if (name == "sparselu-deps") return std::make_unique<SparseLuKernel>(seed);
  if (name == "graph-replay") return std::make_unique<GraphKernel>();
  return nullptr;
}

// --- the shared run loop -----------------------------------------------------

/// Solve repeatedly for `seconds` (at least once); returns each solve's
/// wall time in ms. `solve` is the timed call, prepare/check stay outside.
template <typename Solve>
std::vector<double> window(Kernel& k, Result& res, double seconds,
                           Solve&& solve) {
  std::vector<double> ms;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    k.prepare();
    const std::uint64_t t0 = now_ns();
    solve();
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    ++res.attempted;
    if (!k.check()) ++res.failed;
  } while (now_ns() < end);
  return ms;
}

std::unique_ptr<Runtime> make_runtime(const std::string& spec) {
  return xtask::RuntimeRegistry::make_xtask(
      xtask::RuntimeRegistry::xtask_config(xtask::BackendSpec::parse(spec)));
}

/// Steal-round latency quantile from the runtime's log2 histogram (bucket
/// b covers [2^(10+b), 2^(11+b)) cycles, bucket 0 everything below 2^11),
/// interpolated inside the bucket.
double steal_round_quantile_cycles(const xtask::Counters& d, double q) {
  double total = 0;
  for (std::uint64_t n : d.steal_lat_hist) total += static_cast<double>(n);
  if (total == 0) return 0.0;
  const double target = q * total;
  double seen = 0;
  for (std::size_t b = 0; b < d.steal_lat_hist.size(); ++b) {
    const auto nb = static_cast<double>(d.steal_lat_hist[b]);
    if (nb == 0) continue;
    if (seen + nb >= target) {
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, 10 + static_cast<int>(b));
      const double hi = std::ldexp(1.0, 11 + static_cast<int>(b));
      return lo + (target - seen) / nb * (hi - lo);
    }
    seen += nb;
  }
  return std::ldexp(1.0, 26);
}

/// Field-wise c1 - c0 of the counters the ledger reads.
xtask::Counters delta(const xtask::Counters& c1, const xtask::Counters& c0) {
  xtask::Counters d;
  auto sub = [&](std::uint64_t xtask::Counters::*f) { d.*f = c1.*f - c0.*f; };
  for (auto f :
       {&xtask::Counters::ntasks_self, &xtask::Counters::ntasks_local,
        &xtask::Counters::ntasks_remote, &xtask::Counters::ntasks_imm_exec,
        &xtask::Counters::nreq_sent, &xtask::Counters::nreq_handled,
        &xtask::Counters::nreq_has_steal, &xtask::Counters::nreq_src_empty,
        &xtask::Counters::nsteal_local, &xtask::Counters::nsteal_remote,
        &xtask::Counters::ntasks_created, &xtask::Counters::ntasks_executed,
        &xtask::Counters::nidle_yields, &xtask::Counters::ngraph_replays,
        &xtask::Counters::ngraph_edges_released,
        &xtask::Counters::nsteal_rounds, &xtask::Counters::nsteal_direct,
        &xtask::Counters::steal_round_cycles,
        &xtask::Counters::nqueue_fullscans, &xtask::Counters::nalloc_refills,
        &xtask::Counters::idle_cycles})
    sub(f);
  for (std::size_t b = 0; b < d.steal_lat_hist.size(); ++b)
    d.steal_lat_hist[b] = c1.steal_lat_hist[b] - c0.steal_lat_hist[b];
  return d;
}

}  // namespace

void set_counter_metrics(Result& r, const xtask::Counters& d, double solves,
                         double team_cycles, double mode_switches) {
  const auto f = [](std::uint64_t v) { return static_cast<double>(v); };
  r.set("core.spawn.calls_per_solve", ratio(f(d.ntasks_created), solves));
  r.set("core.spawn.inline_frac", ratio(f(d.ntasks_imm_exec), f(d.ntasks_created)));
  r.set("core.alloc.refills_per_solve", ratio(f(d.nalloc_refills), solves));
  r.set("core.alloc.refill_frac", ratio(f(d.nalloc_refills), f(d.ntasks_created)));
  r.set("core.idle.frac", ratio(f(d.idle_cycles), team_cycles));
  r.set("core.idle.yields_per_solve", ratio(f(d.nidle_yields), solves));
  r.set("core.queue.fullscans_per_solve", ratio(f(d.nqueue_fullscans), solves));
  r.set("core.tasks_per_solve", ratio(f(d.ntasks_executed), solves));
  r.set("core.steal.rounds_per_solve", ratio(f(d.nsteal_rounds), solves));
  r.set("core.steal.req_sent_per_solve", ratio(f(d.nreq_sent), solves));
  r.set("core.steal.success_frac", ratio(f(d.nreq_has_steal), f(d.nreq_handled)));
  r.set("core.steal.src_empty_frac", ratio(f(d.nreq_src_empty), f(d.nreq_handled)));
  double rounds = 0;
  for (std::uint64_t n : d.steal_lat_hist) rounds += f(n);
  r.set("core.steal.round_us_mean",
        cycles_to_ns(ratio(f(d.steal_round_cycles), rounds)) * 1e-3);
  r.set("core.steal.round_us_p90",
        cycles_to_ns(steal_round_quantile_cycles(d, 0.9)) * 1e-3);
  r.set("core.steal.direct_per_solve", ratio(f(d.nsteal_direct), solves));
  r.set("core.steal.remote_frac",
        ratio(f(d.nsteal_remote), f(d.nsteal_local + d.nsteal_remote)));
  r.set("core.mode.switches_per_solve", ratio(mode_switches, solves));
  const double executed = f(d.ntasks_self + d.ntasks_local + d.ntasks_remote);
  r.set("core.locality.self_frac", ratio(f(d.ntasks_self), executed));
  r.set("core.locality.remote_frac", ratio(f(d.ntasks_remote), executed));
}

Result run_kernel(const std::string& name, const Options& opt) {
  std::unique_ptr<Kernel> k = make_kernel(name, opt.seed);
  Result res;
  res.workload = name;
  const std::string spec = k->spec() + ",seed=" + std::to_string(opt.seed);
  res.note("spec", "\"" + spec + "\"");

  // Set-up: runtime construction, inputs, warm-up solves. A plain run
  // repeats it so that setup_s is a median, keeping the last runtime.
  std::unique_ptr<Runtime> rt;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (opt.traced ? 1 : kSetupReps); ++rep) {
    rt.reset();
    const std::uint64_t t0 = now_ns();
    rt = make_runtime(spec);
    k->setup(*rt);
    double s = seconds_since(t0);
    for (int i = 0; i < kWarmupSolves; ++i) {
      const std::uint64_t t1 = now_ns();
      k->prepare();
      k->solve(*rt);
      s += seconds_since(t1);
      ++res.attempted;
      if (!k->check()) ++res.failed;
    }
    setup_s.push_back(s);
  }
  const int threads = rt->config().num_threads;

  if (!opt.traced) {
    const std::vector<double> ms =
        window(*k, res, opt.seconds, [&] { k->solve(*rt); });
    double total_ms = 0;
    for (double m : ms) total_ms += m;
    res.set("setup_s", median(setup_s));
    res.set("p50_ms", quantile(ms, 0.5));
    res.set("p90_ms", quantile(ms, 0.9));
    res.set("ops_per_s", ratio(static_cast<double>(ms.size()), total_ms * 1e-3));
    res.note("samples", static_cast<double>(ms.size()));
    return res;
  }

  // Traced: half the window untraced (the overhead baseline), the region
  // probe, one sampled solve that keeps its spans, then half traced.
  const std::vector<double> plain_ms =
      window(*k, res, opt.seconds / 2, [&] { k->solve(*rt); });
  const double plain_p50 = quantile(plain_ms, 0.5);

  std::vector<double> region_us;
  for (int i = 0; i < kRegionProbes; ++i) {
    const std::uint64_t t0 = now_ns();
    rt->run([](TaskContext&) {});
    region_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }

  Ledger ledger(threads);
  window(*k, res, 0, [&] {
    ledger.begin_solve(/*sample=*/true);
    k->solve_traced(*rt, ledger);
    ledger.end_solve();
  });
  ledger.clear_hists();  // keep the sampled solve out of the statistics

  const xtask::Counters c0 = rt->profiler().total_counters();
  const std::uint64_t switches0 = rt->mode_switches();
  std::vector<SolveLedger> solves;
  const std::vector<double> traced_ms =
      window(*k, res, opt.seconds / 2, [&] {
        ledger.begin_solve(/*sample=*/false);
        k->solve_traced(*rt, ledger);
        solves.push_back(ledger.end_solve());
      });
  const xtask::Counters d = delta(rt->profiler().total_counters(), c0);
  const double n = static_cast<double>(solves.size());
  const double switches = static_cast<double>(rt->mode_switches() - switches0);
  rt.reset();

  double team = 0, body = 0, spawn = 0, wait = 0;
  std::vector<double> imbalance, finish_cov;
  for (const SolveLedger& s : solves) {
    team += s.wall_cycles * threads;
    body += s.self[kBody];
    spawn += s.self[kSpawn] + s.self[kDepSpawn];
    wait += s.self[kWait];
    imbalance.push_back(s.imbalance_pct);
    finish_cov.push_back(s.finish_cov);
  }
  const LogHist spawn_h = ledger.merged({kSpawn, kDepSpawn});
  const LogHist dep_h = ledger.merged({kDepSpawn});
  res.set("core.spawn.ns_p50", cycles_to_ns(spawn_h.quantile(0.5)));
  res.set("core.spawn.ns_p99", cycles_to_ns(spawn_h.quantile(0.99)));
  res.set("core.wait.ns_p50", cycles_to_ns(ledger.merged({kWait}).quantile(0.5)));
  res.set("core.wait.frac", ratio(wait, team));
  res.set("core.body.frac", ratio(body, team));
  res.set("core.sched.outside_frac", 1.0 - ratio(body + spawn + wait, team));
  res.set("core.region.us_p50", quantile(region_us, 0.5));
  res.set("core.imbalance.pct", median(imbalance));
  res.set("core.imbalance.finish_cov", median(finish_cov));
  res.set("core.deps.spawn_ns_p50", cycles_to_ns(dep_h.quantile(0.5)));
  set_counter_metrics(res, d, n, team, switches);
  k->layer_metrics(res, plain_p50, d);
  res.set("trace.overhead_frac", ratio(quantile(traced_ms, 0.5), plain_p50) - 1.0);
  res.note("samples", static_cast<double>(plain_ms.size()));
  res.note("traced_samples", n);

  // References, each for a fifth of the window (at most 2 s): the same
  // problem solved serially and on the lomp baseline with as many threads.
  const double ref_s = std::min(2.0, opt.seconds / 5);
  const double serial_p50 =
      quantile(window(*k, res, ref_s, [&] { k->solve_serial(); }), 0.5);
  double lomp_p50 = 0;
  {
    const std::unique_ptr<LompRuntime> lomp = xtask::RuntimeRegistry::make_lomp(
        xtask::RuntimeRegistry::lomp_config(xtask::BackendSpec::parse(
            "lomp:threads=" + std::to_string(threads) +
            ",seed=" + std::to_string(opt.seed))));
    window(*k, res, 0, [&] { k->solve_lomp(*lomp); });  // warm-up
    lomp_p50 = quantile(window(*k, res, ref_s, [&] { k->solve_lomp(*lomp); }), 0.5);
  }
  res.set("ref.serial_ms_p50", serial_p50);
  res.set("ref.lomp_ms_p50", lomp_p50);
  res.set("ref.speedup_vs_serial", ratio(serial_p50, plain_p50));
  res.set("ref.vs_lomp", ratio(plain_p50, lomp_p50));

  const std::string path = opt.spans_dir + "/e2e_spans_" + name + ".jsonl";
  if (!ledger.write_spans(path, name))
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
  return res;
}

bool Ledger::write_spans(const std::string& path,
                         const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  static constexpr const char* kNames[kLayers] = {"body", "spawn", "spawn_deps",
                                                  "taskwait"};
  std::size_t spans = 0;
  std::uint64_t dropped = 0;
  for (const auto& w : w_) {
    spans += w->spans.size();
    dropped += w->spans_dropped;
  }
  std::fprintf(f,
               "{\"workload\":\"%s\",\"spans\":%zu,\"dropped\":%llu,"
               "\"time_unit\":\"ns from solve start\"}\n",
               workload.c_str(), spans, static_cast<unsigned long long>(dropped));
  const auto ns = [this](std::uint64_t tsc) {
    return cycles_to_ns(static_cast<double>(tsc - sample_start_));
  };
  for (const auto& w : w_)
    for (const Span& s : w->spans)
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start\":%.1f,\"end\":%.1f,"
                   "\"worker\":%u,\"id\":%llu,\"parent\":%llu}\n",
                   kNames[s.layer], ns(s.start), ns(s.end), s.worker,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
  return std::fclose(f) == 0;
}

}  // namespace e2e
