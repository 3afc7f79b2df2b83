// sim-sweep: the researcher's path. exp::run_sweep over a fixed grid of the
// paper's constructions on the simulator, repeated for the run's length.
// A sweep config is the unit of work: it is requested when the sweep
// starts, starts when a sweep thread takes it, and completes when its
// replicates finish.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/layout.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace wsf;

// The grid is the one `wsf-sweep` runs for
//   --families=fig2:32,fig4:16,fig6a:8,forkjoin:6,pipeline
//   --procs=2,4,8,16 --policies=future-first,parent-first
//   --cache-lines=0,64 --seeds=16
// Each family's size is the largest of its figure-reproduction command in
// the README (fig2:16:32, fig4:8:16, fig6a:6:8, the steal figure's
// forkjoin --size=6); pipeline has no figure command and takes wsf-sweep's
// defaults (--size=6 --size2=4), as does every family's size2. Sixteen
// replicates per config, as in those commands.
exp::SweepSpec sim_grid(std::uint64_t seed_base) {
  exp::SweepSpec spec;
  const auto add = [&spec](const char* family, std::uint32_t size) {
    graphs::RegistryParams p;
    p.size = size;
    p.size2 = 4;
    spec.graphs.push_back({family, p, {}});
  };
  add("fig2", 32);
  add("fig4", 16);
  add("fig6a", 8);
  add("forkjoin", 6);
  add("pipeline", 6);
  spec.procs = {2, 4, 8, 16};
  spec.policies = {core::ForkPolicy::FutureFirst,
                   core::ForkPolicy::ParentFirst};
  spec.cache_lines = {0, 64};
  spec.seeds = 16;
  spec.seed_base = seed_base;
  return spec;
}

namespace {

/// The sweep table's checked-in digest is for this seed_base.
constexpr std::uint64_t kReferenceSeed = 1;

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

struct SweepPass {
  std::uint64_t configs = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t failed = 0;
  double seconds = 0;
  double service_ns_sum = 0;
  std::uint64_t ctx_switches = 0;
  Histogram latency_us, service_us, queue_us;
  /// configs / wall time of each sweep.
  std::vector<double> sweep_rates;
};

/// Runs the grid once on `threads` sweep threads, timing each config.
/// Returns the table digest, or "" if the sweep threw.
std::string one_sweep(const exp::SweepSpec& spec, unsigned threads,
                      SweepPass& pass, Checks& checks) {
  const auto requested = Clock::now();
  const std::uint64_t sweep_span = trace::open("sweep", 0);
  Clock::time_point dispatched = requested;
  std::map<std::thread::id, Clock::time_point> last_done;
  exp::SweepRunOptions ro;
  ro.threads = threads;
  // run_sweep asks skip() about every config right before it starts its
  // threads, so the last call marks when configs begin to be dispatched.
  ro.skip = [&](std::size_t) {
    dispatched = Clock::now();
    return false;
  };
  // on_row runs on the sweep thread that finished the config, serialized;
  // that thread's previous completion (or the dispatch) is when it started.
  ro.on_row = [&](std::size_t index, const exp::SweepRow&) {
    const auto now = Clock::now();
    auto [it, fresh] = last_done.try_emplace(std::this_thread::get_id(),
                                             dispatched);
    const Clock::time_point started = it->second;
    it->second = now;
    (void)fresh;
    pass.latency_us.add(
        static_cast<std::uint64_t>(us_between(requested, now)));
    pass.service_us.add(
        static_cast<std::uint64_t>(us_between(started, now)));
    pass.queue_us.add(
        static_cast<std::uint64_t>(us_between(requested, started)));
    pass.service_ns_sum += ns_between(started, now);
    trace::record("config", index + 1, sweep_span, started, now);
  };
  const std::size_t n_configs = exp::expand_spec(spec).size();
  std::string digest;
  try {
    const exp::SweepResult result = exp::run_sweep(spec, ro);
    for (const exp::SweepRow& row : result.rows) {
      const bool ran = row.cell.deviations.count() == spec.seeds;
      checks.expect(ran, "sweep config " + row.config.family +
                             " did not run all its seeds");
      checks.expect(row.cell.premature_touches.mean() == 0,
                    "premature touches in structured sweep config " +
                        row.config.family);
    }
    digest = fnv1a_hex(exp::to_table(result).to_csv());
    pass.configs += n_configs;
    pass.sweep_rates.push_back(static_cast<double>(n_configs) /
                               s_between(requested, Clock::now()));
  } catch (const std::exception& e) {
    checks.expect(false, std::string("sweep threw: ") + e.what());
    pass.failed += n_configs;
  }
  trace::close(sweep_span);
  ++pass.sweeps;
  return digest;
}

/// Repeats the seeded sweep for `seconds` (at least twice); every repeat
/// must reproduce the first table byte for byte.
SweepPass run_pass(const exp::SweepSpec& spec, unsigned threads,
                   double seconds, Checks& checks) {
  SweepPass pass;
  const std::uint64_t cs0 = context_switches();
  const auto t0 = Clock::now();
  std::string first;
  while (pass.sweeps < 2 || s_between(t0, Clock::now()) < seconds) {
    const std::string digest = one_sweep(spec, threads, pass, checks);
    if (pass.sweeps == 1) first = digest;
    checks.expect(!digest.empty() && digest == first,
                  "sweep table changed between repeats of one seed (" +
                      first + " vs " + digest + ")");
  }
  pass.seconds = s_between(t0, Clock::now());
  pass.ctx_switches = context_switches() - cs0;
  return pass;
}

}  // namespace

void run_sim_sweep(const RunOptions& opts, Report& report) {
  const exp::SweepSpec spec = sim_grid(opts.seed);
  report.config["sweep.threads"] = std::to_string(kSweepThreads);
  report.config["sweep.configs_per_sweep"] =
      std::to_string(exp::expand_spec(spec).size());
  report.config["sweep.seeds_per_config"] = std::to_string(spec.seeds);
  report.config["sweep.seed_base"] = std::to_string(spec.seed_base);
  report.config["sweep.stall_prob"] = format_number(spec.stall_prob);

  // Set-up: expand the grid, generate its graphs and lay them out. Timed
  // after the measured passes, so the process's one-time costs (first
  // touches of its heap) do not land in the first set-up.
  std::vector<double> setup_s, gen_ms, layout_ms;
  const auto time_set_ups = [&] {
    for (int r = 0; r < kSetupReps; ++r) {
      if (r)
        std::this_thread::sleep_for(std::chrono::duration<double>(kSetupGapS));
      const auto t0 = Clock::now();
      const std::vector<exp::SweepConfig> configs = exp::expand_spec(spec);
      const std::vector<graphs::GeneratedDag> dags =
          exp::generate_graphs(spec);
      const auto t1 = Clock::now();
      std::vector<core::GraphLayout> layouts;
      layouts.reserve(dags.size());
      for (const auto& d : dags) layouts.emplace_back(d.graph);
      const auto t2 = Clock::now();
      setup_s.push_back(s_between(t0, t2));
      gen_ms.push_back(ns_between(t0, t1) * 1e-6);
      layout_ms.push_back(ns_between(t1, t2) * 1e-6);
    }
  };

  if (!opts.trace) {
    const SweepPass pass =
        run_pass(spec, kSweepThreads, opts.seconds, report.checks);
    report.attempted += pass.configs + pass.failed;
    report.failed += pass.failed;
    const auto n = pass.latency_us.count();
    time_set_ups();
    report.set("setup_s", median(setup_s), "s", setup_s.size());
    // Sweeps repeat identical work: the median sweep's rate.
    report.set("jobs_per_s", median(pass.sweep_rates), "jobs/s",
               pass.configs);
    report.set("latency_p50_us", pass.latency_us.quantile(0.5), "us", n);
    report.set("latency_p99_us", pass.latency_us.quantile(0.99), "us", n);
    report.set("service_p50_us", pass.service_us.quantile(0.5), "us", n);
    report.set("service_p99_us", pass.service_us.quantile(0.99), "us", n);
    report.set("queue_p99_us", pass.queue_us.quantile(0.99), "us", n);
  } else {
    const double share = opts.seconds * 0.4;
    const SweepPass plain = run_pass(spec, kSweepThreads, share, report.checks);
    trace::enable(true);
    const SweepPass traced =
        run_pass(spec, kSweepThreads, share, report.checks);
    trace::enable(false);
    report.attempted += plain.configs + plain.failed + traced.configs +
                        traced.failed;
    report.failed += plain.failed + traced.failed;
    report.set("bench.trace_overhead_frac",
               median(plain.sweep_rates) / median(traced.sweep_rates) - 1,
               "ratio", traced.configs);
    report.set("sweep.parallel_eff",
               plain.service_ns_sum * 1e-9 / (kSweepThreads * plain.seconds),
               "ratio", plain.configs);
    report.set("os.ctx_switches_per_job",
               static_cast<double>(plain.ctx_switches) /
                   static_cast<double>(plain.configs),
               "count", plain.configs);
    time_set_ups();
    report.set("graphs.generate_ms", median(gen_ms), "ms", gen_ms.size());
    report.set("layout.build_ms", median(layout_ms), "ms", layout_ms.size());
    // The sweep runs no runtime jobs: the job-stream layers are idle here.
    for (const char* name :
         {"pool.steals_per_job", "pool.backoffs_per_job",
          "pool.inbox_takes_per_job", "pool.migrations_per_job",
          "pool.fiber_resumes_per_job", "pool.steady_fibers_created"})
      report.not_exercised(name, "count");
    for (const char* name :
         {"pool.steal_success_ratio", "pool.local_pop_ratio",
          "pool.parked_touch_ratio", "pool.handoff_ratio",
          "pool.scaling_eff"})
      report.not_exercised(name, "ratio");
    report.not_exercised("pool.stage_ns_per_job", "ns");
    report.not_exercised("pool.submit_ns_per_job", "ns");
    report.not_exercised("pool.collect_wait_us", "us");
    report.not_exercised("pool.p1_jobs_per_s", "jobs/s");
    trace::enable(true);
    run_layer_pass(opts.seed, report);
    trace::enable(false);
  }

  // The reference sweep: a fixed seed whose table digest is checked in.
  SweepPass ref;
  const std::string digest =
      one_sweep(sim_grid(kReferenceSeed), kSweepThreads, ref, report.checks);
  report.config["sweep.reference_digest"] = digest;
  report.checks.expect(digest == opts.reference_digest,
                       "reference sweep table digest " + digest +
                           " differs from the checked-in " +
                           opts.reference_digest);
}

}  // namespace perfbench
