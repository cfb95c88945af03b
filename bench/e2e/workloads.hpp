// The five bench_e2e workloads. Later changes refer to them by these names.
#pragma once

#include <string>

#include "e2e.hpp"
#include "prof/profiler.hpp"

namespace e2e {

inline constexpr const char* kWorkloads[] = {
    "fib", "nqueens-msg", "sparselu-deps", "graph-replay", "serve"};

/// fib, nqueens-msg, sparselu-deps, graph-replay (kernels.cpp).
Result run_kernel(const std::string& name, const Options& opt);

/// The task service under open- and closed-loop load (serve.cpp).
Result run_serve(const Options& opt);

/// The per-layer metrics read from the runtime's counters, given the
/// counter delta over `solves` solves and the team's cycle budget.
void set_counter_metrics(Result& r, const xtask::Counters& delta,
                         double solves, double team_cycles,
                         double mode_switches);

}  // namespace e2e
