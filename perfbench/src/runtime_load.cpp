// The runtime workloads: closed-loop job streams served by one long-lived
// runtime::Scheduler, each job replaying one of the paper's DAGs through a
// runtime::GraphReplayer. The main thread is the only load generator.
//
//   steal-heavy  every job a depth-7 unit-leaf fork-join tree (127 forks,
//                almost no work): deque, fiber start and job allocation
//                dominate.
//   touch-heavy  tiny fig4 and fig2 (size 6) jobs, one of each per pair in
//                seeded order: admission, inbox and completion dominate,
//                fibers park and wake instead of starting fresh.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/layout.hpp"
#include "graphs/registry.hpp"
#include "runtime/pool.hpp"
#include "runtime/replay.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace wsf;

/// Jobs staged per admission: one batch is in flight at a time.
constexpr std::size_t kBatch = 16;

struct JobKind {
  const char* family;
  graphs::RegistryParams params;
};

struct StreamSpec {
  std::vector<JobKind> kinds;
};

StreamSpec stream_spec(const std::string& workload) {
  const auto params = [](std::uint32_t size, std::uint32_t size2) {
    graphs::RegistryParams p;
    p.size = size;
    p.size2 = size2;
    return p;
  };
  if (workload == "steal-heavy") return {{{"forkjoin", params(7, 1)}}};
  return {{{"fig4", params(6, 4)}, {"fig2", params(6, 4)}}};
}

/// The job-kind order: every period holds each kind once, shuffled by the
/// workload seed, so the mix is exact and the order varies with the seed.
class KindSequence {
 public:
  KindSequence(const StreamSpec& spec, std::uint64_t seed)
      : rng_(seed), period_(spec.kinds.size()), pos_(period_.size()) {
    for (std::size_t k = 0; k < period_.size(); ++k) period_[k] = k;
  }
  std::size_t next() {
    if (pos_ == period_.size()) {
      std::shuffle(period_.begin(), period_.end(), rng_);
      pos_ = 0;
    }
    return period_[pos_++];
  }

 private:
  std::mt19937_64 rng_;
  std::vector<std::size_t> period_;
  std::size_t pos_;
};

/// Everything a stream runs on: the DAGs, replayer arenas per kind, and
/// the scheduler.
struct Env {
  std::vector<graphs::GeneratedDag> dags;
  std::vector<std::vector<std::unique_ptr<runtime::GraphReplayer>>> replayers;
  std::unique_ptr<runtime::Scheduler> sched;
};

/// Measures of one pass over the stream.
struct Pass {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double seconds = 0;
  /// Latency, service and queue time, and completions, per window.
  Windows windows{Clock::now(), Windows::kWindowS};
  runtime::WorkerCounters counters;  // delta over the pass
  runtime::AdmissionStats admission;  // delta over the pass
  std::uint64_t ctx_switches = 0;
};

/// Validates one finished replay: it completed, no touch came before its
/// fork, and the workers' orders cover every node exactly once.
class ReplayChecker {
 public:
  explicit ReplayChecker(std::size_t max_nodes) : mark_(max_nodes, 0) {}

  bool ok(const runtime::ReplayResult& r, const runtime::GraphReplayer& rp,
          std::size_t nodes) {
    if (r.outcome != runtime::JobOutcome::Completed) return false;
    if (r.premature_touches != 0) return false;
    ++epoch_;
    std::size_t seen = 0;
    for (const auto& order : rp.worker_orders()) {
      for (const core::NodeId v : order) {
        if (v >= nodes || mark_[v] == epoch_) return false;
        mark_[v] = epoch_;
        ++seen;
      }
    }
    return seen == nodes;
  }

 private:
  std::vector<std::uint32_t> mark_;
  std::uint32_t epoch_ = 0;
};

class Stream {
 public:
  Stream(Env& env, const StreamSpec& spec, std::uint64_t seed,
         Report& report)
      : env_(env),
        spec_(spec),
        seq_(spec, seed),
        checks_(report.checks),
        checker_(max_nodes(env)) {
    free_.resize(env.replayers.size());
    for (std::size_t k = 0; k < env.replayers.size(); ++k)
      for (std::size_t i = env.replayers[k].size(); i-- > 0;)
        free_[k].push_back(i);
  }

  /// One pass of `seconds`; returns the pass's measures with the counter
  /// deltas taken at quiescence.
  Pass run(double seconds) {
    runtime::Scheduler& sched = *env_.sched;
    Pass pass;
    sched.reset_counters();
    const runtime::AdmissionStats adm0 = sched.admission();
    const std::uint64_t cs0 = context_switches();
    const auto t0 = Clock::now();
    pass.windows = Windows(t0, seconds);
    run_closed(pass, t0, seconds);
    sched.drain();
    const auto end = Clock::now();
    pass.windows.finish(end);
    pass.seconds = s_between(t0, end);
    pass.ctx_switches = context_switches() - cs0;
    pass.counters = sched.counters().total();
    const runtime::AdmissionStats adm1 = sched.admission();
    pass.admission.submitted = adm1.submitted - adm0.submitted;
    pass.admission.admitted = adm1.admitted - adm0.admitted;
    pass.admission.rejected = adm1.rejected - adm0.rejected;
    pass.admission.timed_out = adm1.timed_out - adm0.timed_out;
    return pass;
  }

 private:
  struct InFlight {
    std::size_t kind = 0;
    std::size_t slot = 0;
    std::uint64_t job = 0;
  };

  static std::size_t max_nodes(const Env& env) {
    std::size_t n = 0;
    for (const auto& d : env.dags) n = std::max(n, d.graph.num_nodes());
    return n;
  }

  runtime::GraphReplayer& replayer(const InFlight& f) {
    return *env_.replayers[f.kind][f.slot];
  }

  /// Takes a free replayer of `kind` and stages its job into `batch`.
  InFlight stage(runtime::Batch& batch, std::size_t kind) {
    InFlight f{kind, free_[kind].back(), ++job_id_};
    free_[kind].pop_back();
    const std::uint64_t span = trace::open("stage", f.job);
    runtime::ReplayOptions ro;
    ro.job_counters = false;  // a per-job baseline would allocate per job
    replayer(f).stage(batch, ro);
    trace::close(span);
    return f;
  }

  void submit(runtime::Batch& batch, Pass& pass) {
    const trace::Scope span("submit", 0);
    const std::size_t n = batch.size();
    const runtime::SubmitStatus st = env_.sched->try_submit(batch);
    pass.offered += n;
    checks_.expect(st == runtime::SubmitStatus::Admitted,
                   std::string("batch admission ") + runtime::to_string(st));
  }

  /// Collects a finished job into the window of time `when`.
  runtime::ReplayResult collect(const InFlight& f, Pass& pass,
                                Clock::time_point when) {
    runtime::ReplayResult r;
    {
      const trace::Scope span("collect", f.job);
      r = replayer(f).collect();
    }
    if (r.outcome == runtime::JobOutcome::Completed) {
      ++pass.completed;
      Windows::Window& w = pass.windows.at(when);
      ++w.completed;
      w.latency_us.add(r.wall_us);
      w.service_us.add(r.service_us);
      w.queue_us.add(r.queue_us);
    }
    return r;
  }

  /// Checks a collected job while its replayer still holds its orders,
  /// then frees the replayer.
  void check_and_free(const InFlight& f, const runtime::ReplayResult& r,
                      Pass& pass) {
    const bool ok =
        checker_.ok(r, replayer(f), env_.dags[f.kind].graph.num_nodes());
    if (!ok) ++pass.failed;
    checks_.expect(ok, "job " + std::to_string(f.job) + " (" +
                           spec_.kinds[f.kind].family +
                           ") did not complete cleanly: outcome " +
                           runtime::to_string(r.outcome) +
                           ", premature touches " +
                           std::to_string(r.premature_touches) +
                           ", or its worker orders miss or repeat a node");
    free_[f.kind].push_back(f.slot);
  }

  /// One batch in flight at a time. The next batch is admitted as soon as
  /// the previous one is collected; the collected batch is checked while
  /// the next one runs.
  void run_closed(Pass& pass, Clock::time_point t0, double seconds) {
    std::vector<InFlight> running, done;
    std::vector<runtime::ReplayResult> results;
    const auto admit_batch = [&] {
      const trace::Scope span("batch", 0);
      runtime::Batch batch(*env_.sched);
      for (std::size_t i = 0; i < kBatch; ++i)
        running.push_back(stage(batch, seq_.next()));
      submit(batch, pass);
    };
    admit_batch();
    while (true) {
      results.clear();
      for (const InFlight& f : running)
        results.push_back(collect(f, pass, Clock::now()));
      done.swap(running);
      running.clear();
      const bool more = s_between(t0, Clock::now()) < seconds;
      if (more) admit_batch();
      for (std::size_t i = 0; i < done.size(); ++i)
        check_and_free(done[i], results[i], pass);
      if (!more) break;
    }
  }

  Env& env_;
  StreamSpec spec_;
  KindSequence seq_;
  Checks& checks_;
  ReplayChecker checker_;
  std::vector<std::vector<std::size_t>> free_;
  std::uint64_t job_id_ = 0;
};

/// Replayer arenas per kind: a batch in flight and the batch being checked
/// may both be all of one kind.
constexpr std::size_t kArenasPerKind = 2 * kBatch;

struct SetupTimes {
  double total_s = 0;
  double generate_ms = 0;
  double layout_ms = 0;
};

/// The benchmark's set-up: generates the stream's DAGs, lays them out,
/// builds the replayer arenas and starts the scheduler.
Env set_up(const StreamSpec& spec, std::uint32_t workers, std::uint64_t seed,
           SetupTimes& times) {
  const auto t0 = Clock::now();
  Env env;
  for (const JobKind& k : spec.kinds)
    env.dags.push_back(graphs::make_named(k.family, k.params));
  const auto t1 = Clock::now();
  // Layout build timed on its own (layout.build_ms); each GraphReplayer
  // below builds its own copy too.
  for (const auto& d : env.dags) {
    const core::GraphLayout layout(d.graph);
    (void)layout;
  }
  const auto t2 = Clock::now();
  for (std::size_t k = 0; k < spec.kinds.size(); ++k) {
    auto& pool = env.replayers.emplace_back();
    for (std::size_t i = kArenasPerKind; i-- > 0;)
      pool.push_back(
          std::make_unique<runtime::GraphReplayer>(env.dags[k].graph));
  }
  runtime::RuntimeOptions ro;
  ro.workers = workers;
  ro.seed = seed;
  env.sched = std::make_unique<runtime::Scheduler>(ro);
  const auto t3 = Clock::now();
  times = {s_between(t0, t3), ns_between(t0, t1) * 1e-6,
           ns_between(t1, t2) * 1e-6};
  return env;
}

struct SetupStats {
  std::vector<double> total_s, generate_ms, layout_ms;
};

/// Times kSetupReps set-ups, each torn down before the next and each after
/// a pause of kSetupGapS. Runs after the measured passes, so the process's
/// one-time costs (first touches of its heap) do not land in the first
/// set-up.
SetupStats time_set_ups(const StreamSpec& spec, std::uint64_t seed) {
  SetupStats st;
  for (int r = 0; r < kSetupReps; ++r) {
    if (r)
      std::this_thread::sleep_for(std::chrono::duration<double>(kSetupGapS));
    SetupTimes t;
    const Env env = set_up(spec, kRuntimeWorkers, seed, t);
    st.total_s.push_back(t.total_s);
    st.generate_ms.push_back(t.generate_ms);
    st.layout_ms.push_back(t.layout_ms);
  }
  return st;
}

struct WarmUp {
  int rounds = 0;
  std::uint64_t fibers_created = 0;
};

/// Runs the stream, untimed, in rounds of kWarmRoundS until kQuietRounds
/// rounds in a row create no new fiber stack: the scheduler then holds the
/// stacks the stream's steady state needs, and the measured pass must
/// create none. Nothing is pre-provisioned beyond what the stream itself
/// asked for.
WarmUp warm_up(Env& env, const StreamSpec& spec, std::uint64_t seed,
               Report& report) {
  constexpr double kWarmRoundS = 0.5;
  constexpr int kQuietRounds = 3;
  constexpr int kMaxWarmRounds = 40;
  Stream warm(env, spec, seed ^ 0x9e3779b97f4a7c15ull, report);
  WarmUp w;
  int quiet = 0;
  while (quiet < kQuietRounds && w.rounds < kMaxWarmRounds) {
    const Pass p = warm.run(kWarmRoundS);
    ++w.rounds;
    w.fibers_created += p.counters.fibers_created;
    quiet = p.counters.fibers_created == 0 ? quiet + 1 : 0;
  }
  return w;
}

/// The counter identities of runtime/counters.hpp and the admission
/// identities, on deltas taken at quiescence.
void check_identities(const Pass& p, const std::string& pass,
                      Checks& checks) {
  const runtime::WorkerCounters& c = p.counters;
  const auto expect = [&](bool ok, const std::string& what) {
    checks.expect(ok, pass + " pass: " + what);
  };
  expect(c.local_pops + c.inbox_takes + c.steals ==
             (c.tasks_run - c.inline_children) + c.resumes,
         "acquisition identity: local_pops + inbox_takes + steals != "
         "(tasks_run - inline_children) + resumes");
  expect(c.resumes == c.continuations_pushed + c.wakes_pushed,
         "resume identity: resumes != continuations_pushed + "
         "wakes_pushed");
  expect(c.parked_touches == c.handoff_runs + c.wakes_pushed,
         "park identity: parked_touches != handoff_runs + "
         "wakes_pushed");
  expect(c.fiber_resumes == c.tasks_run + c.resumes + c.handoff_runs,
         "activation identity: fiber_resumes != tasks_run + resumes "
         "+ handoff_runs");
  const runtime::AdmissionStats& a = p.admission;
  expect(a.submitted == a.admitted + a.rejected + a.timed_out,
         "admission identity: submitted != admitted + rejected + "
         "timed_out");
  expect(a.admitted == p.completed + c.shed,
         "admission identity: admitted != completed + shed");
  expect(a.submitted == p.offered,
         "every offered job was submitted exactly once");
  expect(c.fibers_created == 0,
         "steady state created " + std::to_string(c.fibers_created) +
             " fiber stacks after warm-up");
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return b ? static_cast<double>(a) / static_cast<double>(b) : 0;
}

void report_counters(const Pass& p, Report& report) {
  const runtime::WorkerCounters& c = p.counters;
  const std::uint64_t jobs = p.completed;
  const std::uint64_t acquired = c.local_pops + c.inbox_takes + c.steals;
  report.set("pool.steals_per_job", ratio(c.steals, jobs), "count", jobs);
  report.set("pool.steal_success_ratio", ratio(c.steals, c.steal_attempts),
             "ratio", c.steal_attempts);
  report.set("pool.backoffs_per_job", ratio(c.steal_backoffs, jobs), "count",
             jobs);
  report.set("pool.local_pop_ratio", ratio(c.local_pops, acquired), "ratio",
             acquired);
  report.set("pool.inbox_takes_per_job", ratio(c.inbox_takes, jobs), "count",
             jobs);
  report.set("pool.parked_touch_ratio", ratio(c.parked_touches, c.touches),
             "ratio", c.touches);
  report.set("pool.handoff_ratio", ratio(c.handoff_runs, c.parked_touches),
             "ratio", c.parked_touches);
  report.set("pool.migrations_per_job", ratio(c.migrations, jobs), "count",
             jobs);
  report.set("pool.fiber_resumes_per_job", ratio(c.fiber_resumes, jobs),
             "count", jobs);
  report.set("pool.steady_fibers_created",
             static_cast<double>(c.fibers_created), "count", jobs);
  report.set("os.ctx_switches_per_job", ratio(p.ctx_switches, jobs), "count",
             jobs);
}

void account(const Pass& p, const std::string& pass, Report& report) {
  report.attempted += p.offered;
  report.failed += p.failed;
  check_identities(p, pass, report.checks);
}

}  // namespace

bool is_runtime_workload(const std::string& name) {
  return name == "steal-heavy" || name == "touch-heavy";
}

bool is_known_workload(const std::string& name) {
  return is_runtime_workload(name) || name == "sim-sweep";
}

void run_runtime_workload(const RunOptions& opts, Report& report) {
  const StreamSpec spec = stream_spec(opts.workload);
  report.config["runtime.workers"] = std::to_string(kRuntimeWorkers);
  report.config["runtime.submitters"] = "1";
  report.config["runtime.loop"] = "closed";
  report.config["runtime.batch"] = std::to_string(kBatch);
  report.config["runtime.policy"] = "future-first";
  report.config["runtime.steal"] = "one";
  report.config["runtime.victim"] = "uniform";
  std::string mix;
  for (const JobKind& k : spec.kinds)
    mix += std::string(mix.empty() ? "" : ", ") + k.family + "(" +
           std::to_string(k.params.size) + "," +
           std::to_string(k.params.size2) + ")";
  report.config["runtime.mix"] = mix;

  SetupTimes untimed;
  Env env = set_up(spec, kRuntimeWorkers, opts.seed, untimed);
  const WarmUp warm = warm_up(env, spec, opts.seed, report);
  report.config["runtime.warmup_rounds"] = std::to_string(warm.rounds);
  report.config["runtime.warmup_fibers_created"] =
      std::to_string(warm.fibers_created);
  Stream stream(env, spec, opts.seed, report);

  if (!opts.trace) {
    const Pass p = stream.run(opts.seconds);
    account(p, "measured", report);
    using W = Windows::Window;
    const Windows& w = p.windows;
    report.set("jobs_per_s", w.median_rate(), "jobs/s", p.completed);
    report.windows["jobs_per_s"] = w.rates();
    const auto pooled = [&](const char* name, Histogram W::*h, double q) {
      const Histogram all = w.pooled(h);
      report.windows[name] = w.quantiles(h, q);
      report.set(name, all.quantile(q), "us", all.count());
    };
    pooled("latency_p50_us", &W::latency_us, 0.5);
    pooled("latency_p99_us", &W::latency_us, 0.99);
    pooled("service_p50_us", &W::service_us, 0.5);
    pooled("service_p99_us", &W::service_us, 0.99);
    pooled("queue_p99_us", &W::queue_us, 0.99);
    env.sched.reset();
    const SetupStats st = time_set_ups(spec, opts.seed);
    report.set("setup_s", median(st.total_s), "s", st.total_s.size());
    return;
  }

  // Traced run: untraced and traced passes of equal length, the stream on
  // 1 worker (the untraced pass gives its throughput on 3), then the layer
  // pass.
  const Pass plain = stream.run(opts.seconds * 0.4);
  account(plain, "untraced", report);
  report_counters(plain, report);

  trace::enable(true);
  const Pass traced = stream.run(opts.seconds * 0.4);
  trace::enable(false);
  account(traced, "traced", report);
  const auto spans = trace::totals();
  const auto per_job = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end()
               ? 0.0
               : it->second.self_ns / static_cast<double>(traced.offered);
  };
  report.set("pool.stage_ns_per_job", per_job("stage"), "ns", traced.offered);
  report.set("pool.submit_ns_per_job", per_job("submit"), "ns",
             traced.offered);
  report.set("pool.collect_wait_us", per_job("collect") * 1e-3, "us",
             traced.offered);
  const double p3 = static_cast<double>(plain.completed) / plain.seconds;
  report.set("bench.trace_overhead_frac",
             p3 / (static_cast<double>(traced.completed) / traced.seconds) - 1,
             "ratio", traced.offered);

  // One scheduler's workers at a time: stop the 3-worker pool first.
  env.sched.reset();
  const Pass one = [&] {
    Env env1 = set_up(spec, 1, opts.seed, untimed);
    warm_up(env1, spec, opts.seed, report);
    Stream stream1(env1, spec, opts.seed, report);
    return stream1.run(opts.seconds * 0.2);
  }();
  account(one, "1-worker", report);
  const double p1 = static_cast<double>(one.completed) / one.seconds;
  report.set("pool.p1_jobs_per_s", p1, "jobs/s", one.completed);
  report.set("pool.scaling_eff", p3 / (kRuntimeWorkers * p1), "ratio",
             plain.completed);
  const SetupStats st = time_set_ups(spec, opts.seed);
  report.set("graphs.generate_ms", median(st.generate_ms), "ms",
             st.generate_ms.size());
  report.set("layout.build_ms", median(st.layout_ms), "ms",
             st.layout_ms.size());
  report.not_exercised("sweep.parallel_eff", "ratio");

  trace::enable(true);
  run_layer_pass(opts.seed, report);
  trace::enable(false);
}

}  // namespace perfbench
