// bench_e2e: the repository benchmark. Five fixed workloads, each built
// once in set-up and timed from outside through the public API; every op's
// output is checked. A plain run prints the end-to-end metrics, a traced
// run (--trace 1) the per-layer ledger, the tracing overhead and the
// sampled solve's spans (e2e_spans_<workload>.jsonl in --spans-dir).
//
//   bench_e2e [--workload fib|nqueens-msg|sparselu-deps|graph-replay|serve|all]
//             [--seed N] [--seconds S] [--trace 0|1] [--check]
//             [--spans-dir DIR] [--commit SHA]
//
// stdout: a provenance line, one line per workload, and last the result
// object {"correct", "attempted", "failed", "metrics"}; with --workload
// all the last line's metric names are prefixed "<workload>/". --check
// exits 1 when any op failed. bench/e2e/run.py builds this binary from
// source and runs it; README.md documents every workload and metric.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/common.hpp"
#include "e2e.hpp"
#include "workloads.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

double tsc_per_ns() {
  static const double rate = [] {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t c0 = xtask::rdtscp();
    while (now_ns() - t0 < 20'000'000) {
    }
    return static_cast<double>(xtask::rdtscp() - c0) /
           static_cast<double>(now_ns() - t0);
  }();
  return rate;
}

void Result::note(const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  detail.emplace_back(key, buf);
}

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::span<const MetricDef> table(bool traced) {
  if (traced) return kPerLayer;
  return kEndToEnd;
}

/// `"name": {"value": v, "unit": "u"}` for every metric of the run's mode.
std::string metrics_json(const Result& r, bool traced, const std::string& prefix,
                         bool* finite) {
  std::map<std::string, double> values;
  for (const auto& [name, v] : r.values) {
    bool known = false;
    for (const MetricDef& m : table(traced)) known = known || name == m.name;
    if (!known) xtask::fatal(("bench_e2e: metric outside its table: " + name).c_str());
    values[name] = v;
  }
  std::string out;
  for (const MetricDef& m : table(traced)) {
    const double v = values.count(m.name) ? values[m.name] : 0.0;
    *finite = *finite && std::isfinite(v);
    if (!out.empty()) out += ", ";
    out += "\"" + prefix + m.name + "\": {\"value\": " + number(v) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out;
}

std::string timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_e2e [--workload NAME|all] [--seed N] "
               "[--seconds S] [--trace 0|1] [--check] [--spans-dir DIR] "
               "[--commit SHA]\n  workloads:");
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(value().c_str());
    else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage();
      o.traced = v == "1";
    }
    else if (a == "--check") o.check = true;
    else if (a == "--spans-dir") o.spans_dir = value();
    else if (a == "--commit") o.commit = value();
    else usage();
  }
  bool known = o.workload == "all";
  for (const char* w : kWorkloads) known = known || o.workload == w;
  // The serve workload keeps one slot per open-loop request: bound the
  // window so that stays a few hundred MB at most.
  if (!known || !(o.seconds > 0.0 && o.seconds <= 600.0)) usage();
  return o;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const Options opt = parse(argc, argv);
  std::printf(
      "{\"provenance\": {\"nproc\": %u, \"commit\": \"%s\", \"build_type\": "
      "\"%s\", \"compiler\": \"%s\", \"tsc_ghz\": %s, \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"timestamp\": \"%s\"}}\n",
      std::thread::hardware_concurrency(), opt.commit.c_str(), E2E_BUILD_TYPE,
      compiler(), number(tsc_per_ns()).c_str(),
      static_cast<unsigned long long>(opt.seed), number(opt.seconds).c_str(),
      opt.traced ? 1 : 0, timestamp().c_str());
  std::fflush(stdout);

  std::vector<std::string> names;
  if (opt.workload == "all")
    names.assign(std::begin(kWorkloads), std::end(kWorkloads));
  else
    names.push_back(opt.workload);

  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::string all_metrics;
  for (const std::string& w : names) {
    Result r;
    try {
      r = w == "serve" ? run_serve(opt) : run_kernel(w, opt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e: %s failed: %s\n", w.c_str(), e.what());
      return 1;
    }
    bool finite = true;
    const std::string metrics = metrics_json(r, opt.traced, "", &finite);
    const bool ok = r.correct() && finite;
    std::string line = "{\"workload\": \"" + w + "\", \"correct\": " +
                       (ok ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(r.attempted) +
                       ", \"failed\": " + std::to_string(r.failed);
    for (const auto& [k, v] : r.detail) line += ", \"" + k + "\": " + v;
    std::printf("%s, \"metrics\": {%s}}\n", line.c_str(), metrics.c_str());
    std::fflush(stdout);
    attempted += r.attempted;
    failed += r.failed;
    correct = correct && ok;
    if (!all_metrics.empty()) all_metrics += ", ";
    all_metrics += names.size() == 1
                       ? metrics
                       : metrics_json(r, opt.traced, w + "/", &finite);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), all_metrics.c_str());
  std::fflush(stdout);
  // --check gates on op failures only: a host too slow for the serve
  // generator makes a run unusable as a measurement ("correct": false),
  // not wrong.
  return opt.check && failed > 0 ? 1 : 0;
}
