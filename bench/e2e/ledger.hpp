// Outside-in per-layer ledger for traced runs.
//
// The runtime is not instrumented: the benchmark wraps TaskContext in
// TracedCtx, which the BOTS kernels accept because they are templates over
// their context type. TracedCtx times every spawn, every taskwait and every
// task body with rdtscp and books each span's *self* time (its duration
// minus the spans nested inside it) to its worker, so
//
//   wall x threads = body + spawn + wait + outside
//
// where "outside" is everything the runtime does between bodies that no
// span covers: pop/scan in the worker loop, steal rounds, idle and the
// region barrier. A spawn that overflows into inline execution, or a
// taskwait that runs other tasks, is charged only for its own cycles.
//
// Self time needs no span stack: each worker keeps a running total of the
// self time of every span closed on it, and a span's nested time is how far
// that total moved while it was open (spans on one thread nest properly).
//
// One sampled solve per run also keeps every span (layer, start, end,
// worker, parent) in memory; write_spans() dumps them as JSONL at exit.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/common.hpp"
#include "core/runtime.hpp"
#include "e2e.hpp"

namespace e2e {

enum Layer : std::uint8_t { kBody, kSpawn, kDepSpawn, kWait, kLayers };

struct Span {
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t start;
  std::uint64_t end;
  Layer layer;
  std::uint16_t worker;
};

/// One worker's ledger. Written only by that worker while a region runs;
/// read by the main thread after Runtime::run returns.
struct alignas(64) WorkerLedger {
  struct Open {
    std::uint64_t start, acc, id, parent, prev;
  };

  std::uint16_t worker = 0;
  std::uint64_t self_acc = 0;   // self cycles of every span closed here
  std::uint64_t open_span = 0;  // innermost open span: parent of new ones
  std::uint64_t next_id = 0;
  std::array<std::uint64_t, kLayers> solve_self{};  // this solve, by layer
  std::uint64_t last_body_end = 0;                  // this solve
  std::array<LogHist, kLayers> hist;                // self cycles per call
  bool sampling = false;
  std::size_t span_cap = 0;
  std::uint64_t spans_dropped = 0;
  std::vector<Span> spans;

  Open open(std::uint64_t parent) noexcept {
    const std::uint64_t id =
        (static_cast<std::uint64_t>(worker) + 1) << 48 | ++next_id;
    const Open o{xtask::rdtscp(), self_acc, id, parent, open_span};
    open_span = id;
    return o;
  }

  void close(const Open& o, Layer layer) {
    const std::uint64_t end = xtask::rdtscp();
    const std::uint64_t self = (end - o.start) - (self_acc - o.acc);
    self_acc += self;
    open_span = o.prev;
    solve_self[layer] += self;
    hist[layer].add(self);
    if (layer == kBody) last_body_end = end;
    if (sampling) {
      if (spans.size() < span_cap)
        spans.push_back(Span{o.id, o.parent, o.start, end, layer, worker});
      else
        ++spans_dropped;
    }
  }
};

/// What one traced solve looked like across the team.
struct SolveLedger {
  double wall_cycles = 0;              // x threads = the team's budget
  std::array<double, kLayers> self{};  // summed over workers
  double imbalance_pct = 0;            // (max - mean) / max body time
  double finish_cov = 0;               // CoV of per-worker last finish
};

class Ledger {
 public:
  explicit Ledger(int workers) : w_(static_cast<std::size_t>(workers)) {
    for (std::size_t i = 0; i < w_.size(); ++i) {
      w_[i] = std::make_unique<WorkerLedger>();
      w_[i]->worker = static_cast<std::uint16_t>(i);
    }
  }

  WorkerLedger& worker(int id) { return *w_[static_cast<std::size_t>(id)]; }

  /// Time `f()` as one task body of the worker running `c`; `parent` is
  /// the span that spawned the task (0 when the spawn is not visible).
  template <typename F>
  void body(xtask::TaskContext& c, std::uint64_t parent, F&& f) {
    WorkerLedger& w = worker(c.worker_id());
    const WorkerLedger::Open o = w.open(parent);
    f();
    w.close(o, kBody);
  }

  /// c.spawn(f, deps) timed as a dependence spawn, f as a task body.
  template <typename F>
  void spawn_deps(xtask::TaskContext& c, F&& f,
                  std::initializer_list<xtask::Dep> deps) {
    WorkerLedger& w = worker(c.worker_id());
    const WorkerLedger::Open o = w.open(w.open_span);
    c.spawn(
        [fn = std::forward<F>(f), ledger = this,
         parent = o.id](xtask::TaskContext& cc) mutable {
          ledger->body(cc, parent, [&] { fn(cc); });
        },
        deps);
    w.close(o, kDepSpawn);
  }

  /// Reset the per-solve sums; with `sample`, keep this solve's spans.
  void begin_solve(bool sample) {
    constexpr std::size_t kSpanCap = 1 << 15;  // per worker
    for (auto& w : w_) {
      w->solve_self.fill(0);
      w->last_body_end = 0;
      w->sampling = sample;
      if (sample) {
        w->span_cap = kSpanCap;
        w->spans.reserve(kSpanCap);
      }
    }
    solve_start_ = xtask::rdtscp();
    if (sample) sample_start_ = solve_start_;
  }

  SolveLedger end_solve() {
    SolveLedger s;
    s.wall_cycles = static_cast<double>(xtask::rdtscp() - solve_start_);
    const double n = static_cast<double>(w_.size());
    double bmax = 0, bmean = 0, fmean = 0;
    std::vector<double> finish;
    for (auto& w : w_) {
      w->sampling = false;
      for (std::size_t l = 0; l < kLayers; ++l)
        s.self[l] += static_cast<double>(w->solve_self[l]);
      const auto body = static_cast<double>(w->solve_self[kBody]);
      bmax = std::max(bmax, body);
      bmean += body / n;
      finish.push_back(
          w->last_body_end > solve_start_
              ? static_cast<double>(w->last_body_end - solve_start_)
              : 0.0);
      fmean += finish.back() / n;
    }
    double fvar = 0;
    for (double f : finish) fvar += (f - fmean) * (f - fmean) / n;
    s.imbalance_pct = 100.0 * ratio(bmax - bmean, bmax);
    s.finish_cov = ratio(std::sqrt(fvar), fmean);
    return s;
  }

  void clear_hists() {
    for (auto& w : w_) w->hist.fill(LogHist());
  }

  /// Per-call self-time histogram of `layers`, merged over workers.
  LogHist merged(std::initializer_list<Layer> layers) const {
    LogHist h;
    for (const auto& w : w_)
      for (Layer l : layers) h.merge(w->hist[l]);
    return h;
  }

  /// Write the sampled solve's spans as JSONL, times in ns from the solve
  /// start. Returns false on I/O failure.
  bool write_spans(const std::string& path, const std::string& workload) const;

 private:
  std::vector<std::unique_ptr<WorkerLedger>> w_;
  std::uint64_t solve_start_ = 0;
  std::uint64_t sample_start_ = 0;
};

/// The TaskContext adapter handed to the kernels in traced runs.
class TracedCtx {
 public:
  TracedCtx(xtask::TaskContext& tc, Ledger& ledger) noexcept
      : tc_(tc), ledger_(ledger) {}

  template <typename F>
  void spawn(F&& f) {
    WorkerLedger& w = ledger_.worker(tc_.worker_id());
    const WorkerLedger::Open o = w.open(w.open_span);
    tc_.spawn([fn = std::forward<F>(f), ledger = &ledger_,
               parent = o.id](xtask::TaskContext& c) mutable {
      ledger->body(c, parent, [&] {
        TracedCtx child(c, *ledger);
        fn(child);
      });
    });
    w.close(o, kSpawn);
  }

  void taskwait() {
    WorkerLedger& w = ledger_.worker(tc_.worker_id());
    const WorkerLedger::Open o = w.open(w.open_span);
    tc_.taskwait();
    w.close(o, kWait);
  }

 private:
  xtask::TaskContext& tc_;
  Ledger& ledger_;
};

}  // namespace e2e
