// Shared pieces of the bench_e2e benchmark: options, clocks, statistics,
// the metric tables and the result record every workload fills.
//
// The metric tables below must match BENCHMARK.json: a plain run prints
// exactly kEndToEnd, a traced run exactly kPerLayer, and run.py refuses a
// result whose names differ from the JSON file.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  double seconds = 10.0;  // the timed window of one workload
  bool traced = false;
  bool check = false;     // exit nonzero on any failed op
  std::string spans_dir = ".";
  std::string commit = "unknown";
};

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t t0_ns) noexcept {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// rdtscp ticks per nanosecond, measured once against steady_clock.
double tsc_per_ns();

inline double cycles_to_ns(double cycles) { return cycles / tsc_per_ns(); }

/// Quantile of `v` (0 <= q <= 1), linear between order statistics. 0 for
/// an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Log-linear histogram of non-negative integers (cycles, ns): 32 linear
/// sub-buckets per power of two, about 3% resolution. Quantiles interpolate
/// inside the bucket, so they move with the data instead of snapping to a
/// bucket edge.
class LogHist {
 public:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;

  void add(std::uint64_t v) noexcept {
    ++n_[static_cast<std::size_t>(bucket(v))];
    ++count_;
  }
  void merge(const LogHist& o) noexcept {
    for (int b = 0; b < kBuckets; ++b) n_[b] += o.n_[b];
    count_ += o.count_;
  }

  double quantile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    const double target = q * static_cast<double>(count_);
    double seen = 0.0;
    for (int b = 0; b < kBuckets; ++b) {
      const double nb = static_cast<double>(n_[b]);
      if (nb == 0.0) continue;
      if (seen + nb >= target) {
        const double frac = (target - seen) / nb;
        return low(b) + frac * (low(b + 1) - low(b));
      }
      seen += nb;
    }
    return low(kBuckets);
  }

 private:
  static int bucket(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<int>(v);
    const int exp = 63 - __builtin_clzll(v);
    const int sub = static_cast<int>((v >> (exp - kSubBits)) & (kSub - 1));
    return ((exp - kSubBits + 1) << kSubBits) | sub;
  }
  static double low(int b) noexcept {  // smallest value in bucket b
    if (b < kSub) return b;
    const int exp = (b >> kSubBits) + kSubBits - 1;
    return std::ldexp(1.0 + static_cast<double>(b & (kSub - 1)) / kSub, exp);
  }

  std::array<std::uint64_t, kBuckets> n_{};
  std::uint64_t count_ = 0;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, gated by BENCHMARK.json bounds. On the kernel
/// workloads an op is one solve; on serve the latencies are per request
/// (due time to finish, open loop) and ops_per_s is closed-loop capacity.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"p90_ms", "ms"},
    {"ops_per_s", "1/s"},
};

/// Per-layer metrics (traced runs). A layer a workload does not exercise
/// reads 0; README.md lists which ones apply where.
inline constexpr MetricDef kPerLayer[] = {
    // spawn: task allocator + XQueue push, timed around TaskContext::spawn
    {"core.spawn.ns_p50", "ns"},
    {"core.spawn.ns_p99", "ns"},
    {"core.spawn.calls_per_solve", "count"},
    {"core.spawn.inline_frac", "frac"},
    {"core.alloc.refills_per_solve", "count"},
    {"core.alloc.refill_frac", "frac"},
    // sched: pop/scan, taskwait, idle
    {"core.wait.ns_p50", "ns"},
    {"core.wait.frac", "frac"},
    {"core.body.frac", "frac"},
    {"core.sched.outside_frac", "frac"},
    {"core.idle.frac", "frac"},
    {"core.idle.yields_per_solve", "count"},
    {"core.queue.fullscans_per_solve", "count"},
    {"core.tasks_per_solve", "count"},
    // steal: messaging protocol, direct steal, adaptive mode switches
    {"core.steal.rounds_per_solve", "count"},
    {"core.steal.req_sent_per_solve", "count"},
    {"core.steal.success_frac", "frac"},
    {"core.steal.src_empty_frac", "frac"},
    {"core.steal.round_us_mean", "us"},
    {"core.steal.round_us_p90", "us"},
    {"core.steal.direct_per_solve", "count"},
    {"core.steal.remote_frac", "frac"},
    {"core.mode.switches_per_solve", "count"},
    // barrier: one empty parallel region
    {"core.region.us_p50", "us"},
    // balance (LB4OMP): per-worker body time and finish time per solve
    {"core.imbalance.pct", "%"},
    {"core.imbalance.finish_cov", "frac"},
    // locality: executed by the creating worker / another NUMA zone
    {"core.locality.self_frac", "frac"},
    {"core.locality.remote_frac", "frac"},
    // dependency: spawn with live dependence registration
    {"core.deps.spawn_ns_p50", "ns"},
    // task_graph: sealed-graph replay
    {"core.graph.replay_us_p50", "us"},
    {"core.graph.nodes_per_s", "1/s"},
    {"core.graph.edges_released_per_replay", "count"},
    // serve: admission, rings, drain loop
    {"serve.submit_ns_p50", "ns"},
    {"serve.submit_ns_p99", "ns"},
    {"serve.queue_us_p50", "us"},
    {"serve.queue_us_p99", "us"},
    {"serve.exec_us_p50", "us"},
    {"serve.reject_frac", "frac"},
    {"serve.shed_frac", "frac"},
    {"serve.state.throttle_entries", "count"},
    {"serve.state.reject_entries", "count"},
    {"serve.inline_frac", "frac"},
    {"serve.idle.frac", "frac"},
    {"serve.lat_p99_us", "us"},
    {"serve.slo_goodput_rps", "1/s"},
    // loadgen validity: how late the open-loop generator submitted
    {"serve.gen_lag_us_p50", "us"},
    {"serve.gen_lag_us_p99", "us"},
    {"serve.gen_lag_us_max", "us"},
    // references (not gated): same problem, serial and on the lomp baseline
    {"ref.serial_ms_p50", "ms"},
    {"ref.lomp_ms_p50", "ms"},
    {"ref.speedup_vs_serial", "x"},
    {"ref.vs_lomp", "x"},
    // tracing cost: traced / untraced p50 - 1
    {"trace.overhead_frac", "frac"},
};

/// What one workload run produced. `set` names must come from the table of
/// the run's mode; the output fills every name the workload did not set
/// with 0.
struct Result {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool valid = true;  // false: the measurement itself is unusable
  bool correct() const noexcept { return failed == 0 && valid; }
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::pair<std::string, std::string>> detail;  // JSON fragments

  void set(const std::string& name, double v) { values.emplace_back(name, v); }
  void note(const std::string& key, const std::string& json_value) {
    detail.emplace_back(key, json_value);
  }
  void note(const std::string& key, double v);
};

}  // namespace e2e
