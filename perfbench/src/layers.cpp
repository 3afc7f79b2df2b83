// The layer pass: each layer's calls timed in isolation from the benchmark's
// own code, warmed up first. A timed loop of cheap calls is one span; a
// call that needs untimed set-up around it (a fiber's first resume, a
// fiber creation) gets a span of its own. A metric's value is the median
// over repetitions of the time per operation; its sample count is the
// number of operations timed.
#include <ucontext.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.hpp"
#include "core/deviation.hpp"
#include "graphs/registry.hpp"
#include "runtime/chase_lev.hpp"
#include "runtime/fiber.hpp"
#include "runtime/pool.hpp"
#include "sched/sequential.hpp"
#include "sched/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace wsf;

constexpr int kReps = 15;
constexpr std::size_t kStackBytes = 256 * 1024;  // RuntimeOptions default

struct Sample {
  std::uint64_t ops = 0;
  double ns = 0;
};

/// Runs `fn` under a span named `name`; returns its duration in ns.
template <typename F>
double spanned(const char* name, F&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  trace::record(name, 0, trace::current(), t0, t1);
  return ns_between(t0, t1);
}

/// One untimed warm-up call of `body`, then kReps timed ones; reports the
/// median time per operation in units of `unit_ns` nanoseconds.
template <typename Body>
void per_op(Report& report, const std::string& metric, const char* unit,
            double unit_ns, Body&& body) {
  (void)body();
  std::vector<double> values;
  std::uint64_t ops = 0;
  for (int r = 0; r < kReps; ++r) {
    const Sample s = body();
    values.push_back(s.ns / static_cast<double>(s.ops) / unit_ns);
    ops += s.ops;
  }
  report.set(metric, median(values), unit, ops);
}

void chase_lev_layer(Report& report) {
  constexpr std::size_t kBlock = 64;
  constexpr std::size_t kBlocks = 64;
  constexpr std::uint64_t kOps = kBlock * kBlocks;
  std::vector<int> items(kBlock);
  runtime::ChaseLevDeque<int*> dq;

  per_op(report, "chase_lev.push_pop_ns", "ns", 1, [&] {
    return Sample{kOps, spanned("chase_lev.push_pop", [&] {
                    for (std::size_t b = 0; b < kBlocks; ++b) {
                      for (int& x : items) dq.push_bottom(&x);
                      for (std::size_t i = 0; i < kBlock; ++i)
                        (void)dq.pop_bottom();
                    }
                  })};
  });
  per_op(report, "chase_lev.steal_ns", "ns", 1, [&] {
    for (std::size_t i = 0; i < kOps; ++i) dq.push_bottom(&items[i % kBlock]);
    return Sample{kOps, spanned("chase_lev.steal", [&] {
                    for (std::size_t i = 0; i < kOps; ++i)
                      (void)dq.steal_top();
                  })};
  });
  std::vector<int*> out;
  out.reserve(kOps);
  per_op(report, "chase_lev.steal_batch_item_ns", "ns", 1, [&] {
    for (std::size_t i = 0; i < kOps; ++i) dq.push_bottom(&items[i % kBlock]);
    out.clear();
    const double ns = spanned("chase_lev.steal_batch", [&] {
      while (dq.steal_batch(out, kOps) != 0) {
      }
    });
    while (dq.pop_bottom() != nullptr) {
    }
    return Sample{out.size(), ns};
  });

  // Owner pops racing one thief that steals continuously. Every pop call
  // counts, including the one per block that finds the deque empty. Timing
  // starts once the thief runs; the jthread stops and joins when this
  // function returns.
  std::atomic<bool> thief_running{false};
  std::jthread thief([&](const std::stop_token& stop) {
    thief_running.store(true);
    while (!stop.stop_requested()) (void)dq.steal_top();
  });
  while (!thief_running.load()) std::this_thread::yield();
  per_op(report, "chase_lev.contended_pop_ns", "ns", 1, [&] {
    std::uint64_t pops = 0;
    const double ns = spanned("chase_lev.contended_pop", [&] {
      for (std::size_t b = 0; b < kBlocks; ++b) {
        for (int& x : items) dq.push_bottom(&x);
        do ++pops;
        while (dq.pop_bottom() != nullptr);
      }
    });
    return Sample{pops, ns};
  });
}

void fiber_layer(Report& report) {
  ucontext_t native{};

  per_op(report, "fiber.create_us", "us", 1e3, [&] {
    constexpr std::size_t kFibers = 32;
    std::vector<std::unique_ptr<runtime::Fiber>> fibers(kFibers);
    Sample s{kFibers, 0};
    for (auto& f : fibers)
      s.ns += spanned("fiber.create", [&] {
        f = std::make_unique<runtime::Fiber>([](runtime::Fiber&) {},
                                             kStackBytes);
      });
    return s;
  });

  runtime::Fiber fiber([](runtime::Fiber&) {}, kStackBytes);
  fiber.resume(&native);  // runs to completion; the stack is reusable
  per_op(report, "fiber.rebind_ns", "ns", 1, [&] {
    constexpr std::uint64_t kOps = 4096;
    return Sample{kOps, spanned("fiber.rebind", [&] {
                    for (std::uint64_t i = 0; i < kOps; ++i)
                      fiber.rebind([](runtime::Fiber&) {});
                  })};
  });

  // First resume of a freshly bound fiber (getcontext + makecontext + the
  // switch in); the body suspends at once and a second, untimed resume
  // finishes it.
  per_op(report, "fiber.first_resume_ns", "ns", 1, [&] {
    constexpr std::uint64_t kOps = 256;
    Sample s{kOps, 0};
    for (std::uint64_t i = 0; i < kOps; ++i) {
      fiber.rebind([](runtime::Fiber& self) { self.suspend(); });
      s.ns += spanned("fiber.first_resume", [&] { fiber.resume(&native); });
      fiber.resume(&native);
    }
    return s;
  });

  // resume + suspend round trip into a started fiber.
  bool stop = false;
  fiber.rebind([&stop](runtime::Fiber& self) {
    while (!stop) self.suspend();
  });
  fiber.resume(&native);
  per_op(report, "fiber.switch_ns", "ns", 1, [&] {
    constexpr std::uint64_t kOps = 4096;
    return Sample{kOps, spanned("fiber.switch", [&] {
                    for (std::uint64_t i = 0; i < kOps; ++i)
                      fiber.resume(&native);
                  })};
  });
  stop = true;
  fiber.resume(&native);
}

/// spawn + touch inside one job, and the round trip of an empty job, on a
/// scheduler of the runtime workloads' size that has no other work.
void scheduler_layer(std::uint64_t seed, Report& report) {
  runtime::RuntimeOptions ro;
  ro.workers = kRuntimeWorkers;
  ro.seed = seed;
  runtime::Scheduler sched(ro);

  per_op(report, "future.spawn_touch_ns", "ns", 1, [&] {
    constexpr std::uint64_t kOps = 2048;
    const double ns = sched.run([&] {
      std::uint64_t sum = 0;
      const double span_ns = spanned("future.spawn_touch", [&] {
        for (std::uint64_t i = 0; i < kOps; ++i)
          sum += runtime::spawn([i] { return i; }).touch();
      });
      WSF_CHECK(sum == kOps * (kOps - 1) / 2, "spawn+touch lost a value");
      return span_ns;
    });
    return Sample{kOps, ns};
  });

  per_op(report, "pool.empty_job_rtt_us", "us", 1e3, [&] {
    constexpr std::uint64_t kOps = 64;
    return Sample{kOps, spanned("pool.empty_job_rtt", [&] {
                    for (std::uint64_t i = 0; i < kOps; ++i)
                      sched.submit([] {}).wait();
                  })};
  });
}

/// Simulator, deviation counting and cache models over the sim-sweep
/// grid's graphs (cache lines = 64) at P = 4. The counts (rounds, steals,
/// deviations, misses) are exact and seed-determined; they are schedule
/// counts, not hardware events.
void simulation_layers(std::uint64_t seed, Report& report, Checks& checks) {
  constexpr std::size_t kCacheLines = 64;
  const exp::SweepSpec grid = sim_grid(seed);
  std::vector<double> node_ns, reset_us, count_ns;
  std::uint64_t nodes = 0, steps = 0, steals = 0, attempts = 0;
  std::uint64_t deviations = 0, sim_misses = 0;
  std::vector<std::vector<core::BlockId>> streams;  // per processor run

  for (const exp::GraphAxis& axis : grid.graphs) {
    graphs::RegistryParams params = axis.params;
    params.cache_lines = kCacheLines;
    const graphs::GeneratedDag dag = graphs::make_named(axis.family, params);
    sched::SimOptions so;
    so.procs = 4;
    so.seed = seed;
    so.stall_prob = grid.stall_prob;
    so.cache_lines = kCacheLines;
    const std::vector<core::NodeId> seq =
        sched::run_sequential(dag.graph, so).order;
    sched::Simulator sim(dag.graph, so);
    core::DeviationCounter counter(dag.graph, seq);
    const auto n = static_cast<double>(dag.graph.num_nodes());
    for (int r = 0; r <= kReps; ++r) {  // r == 0 warms up
      double ns = spanned("simulator.reset", [&] { sim.reset(seed + r); });
      if (r) reset_us.push_back(ns * 1e-3);
      const sched::SimResult* res = nullptr;
      ns = spanned("simulator.run_in_place",
                   [&] { res = &sim.run_in_place(); });
      if (r) node_ns.push_back(ns / n);
      const core::DeviationReport* dev = nullptr;
      ns = spanned("deviation.count",
                   [&] { dev = &counter.count(res->proc_orders); });
      if (!r) continue;
      count_ns.push_back(ns / n);
      nodes += dag.graph.num_nodes();
      steps += res->steps;
      steals += res->steals;
      attempts += res->steal_attempts;
      deviations += dev->deviations;
      if (r == 1) {
        sim_misses += res->total_misses();
        for (const auto& order : res->proc_orders) {
          auto& stream = streams.emplace_back();
          for (const core::NodeId v : order)
            if (dag.graph.block_of(v) != core::kNoBlock)
              stream.push_back(dag.graph.block_of(v));
        }
      }
    }
  }
  report.set("simulator.node_ns", median(node_ns), "ns", nodes);
  report.set("simulator.reset_us", median(reset_us), "us", reset_us.size());
  report.set("simulator.rounds_per_node",
             static_cast<double>(steps) / static_cast<double>(nodes),
             "count", nodes);
  report.set("simulator.steal_success_ratio",
             attempts ? static_cast<double>(steals) /
                            static_cast<double>(attempts)
                      : 0,
             "ratio", attempts);
  report.set("deviation.count_node_ns", median(count_ns), "ns", nodes);
  report.set("deviation.deviations_per_node",
             static_cast<double>(deviations) / static_cast<double>(nodes),
             "count", nodes);

  // Replay each processor's recorded block stream through a fresh cache,
  // as the simulator's per-processor caches saw it.
  std::uint64_t accesses = 0;
  for (const auto& s : streams) accesses += s.size();
  for (const auto& [policy, metric] :
       {std::pair{"lru", "cache.lru_access_ns"},
        std::pair{"assoc4", "cache.assoc4_access_ns"},
        std::pair{"direct", "cache.direct_access_ns"}}) {
    auto cache = cache::make_cache(policy, kCacheLines);
    std::uint64_t misses = 0;
    per_op(report, metric, "ns", 1, [&] {
      misses = 0;
      return Sample{accesses, spanned("cache.access", [&] {
                      for (const auto& s : streams) {
                        cache->reset();
                        for (const core::BlockId b : s)
                          misses += cache->access(b);
                      }
                    })};
    });
    if (std::string(policy) == "lru") {
      report.set("cache.miss_ratio",
                 static_cast<double>(misses) / static_cast<double>(accesses),
                 "ratio", accesses);
      checks.expect(misses == sim_misses,
                    "LRU replay of the simulator's block streams gave " +
                        std::to_string(misses) + " misses, the simulator " +
                        std::to_string(sim_misses));
    }
  }
}

}  // namespace

void run_layer_pass(std::uint64_t seed, Report& report) {
  const trace::Scope pass("layer_pass", 0);
  chase_lev_layer(report);
  fiber_layer(report);
  scheduler_layer(seed, report);
  simulation_layers(seed, report, report.checks);
}

}  // namespace perfbench
