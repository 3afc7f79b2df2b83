// The benchmark's workloads and its layer pass. Each entry point fills a
// Report with the run's metrics, configuration and correctness checks.
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"
#include "exp/sweep.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// false: measure the end-to-end metrics untraced. true: the traced run —
  /// an untraced and a traced pass of the workload plus the layer pass,
  /// reporting the per-layer metrics.
  bool trace = false;
  /// Expected digest of the reference sim-sweep table.
  std::string reference_digest;
};

/// Threads the load uses besides the main (generator) thread: runtime
/// workers for the job streams, sweep threads for sim-sweep.
inline constexpr std::uint32_t kRuntimeWorkers = 3;
inline constexpr unsigned kSweepThreads = 2;
/// Set-ups per run; setup_s is their median. A set-up takes about a
/// millisecond, so the set-ups are spread kSetupGapS apart: the median then
/// draws on many moments of a shared machine instead of one.
inline constexpr int kSetupReps = 15;
inline constexpr double kSetupGapS = 0.1;

/// The sim-sweep grid: fig2, fig4, fig6a, forkjoin and pipeline × P ∈
/// {2,4,8,16} × {future-first, parent-first} × cache lines {0, 64}, each
/// config replicated over schedule seeds seed_base … seed_base + 15.
wsf::exp::SweepSpec sim_grid(std::uint64_t seed_base);

bool is_runtime_workload(const std::string& name);
bool is_known_workload(const std::string& name);

/// steal-heavy, touch-heavy.
void run_runtime_workload(const RunOptions& opts, Report& report);
/// sim-sweep.
void run_sim_sweep(const RunOptions& opts, Report& report);

/// Microbenchmarks of each layer's calls (deque, fiber, future, admission,
/// cache models, simulator, deviation counting), each warmed up and timed
/// in spans; reports ns per operation with sample counts.
void run_layer_pass(std::uint64_t seed, Report& report);

}  // namespace perfbench
