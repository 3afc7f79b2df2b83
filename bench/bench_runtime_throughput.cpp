// E11 — the real runtime: fib / reduce / quicksort / pipeline workloads
// under both spawn policies, with the software schedule counters (steals,
// parked touches, migrations) reported alongside wall time. Uses
// google-benchmark. On a single-core host the timing differences are
// modest; the counters are the interesting series (future-first parks far
// less on structured code when workers are not starved).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "runtime/pool.hpp"

namespace {

using wsf::core::ForkPolicy;
using wsf::runtime::Future;
using wsf::runtime::RuntimeOptions;
using wsf::runtime::Scheduler;
using wsf::runtime::spawn;

std::uint64_t fib_seq(std::uint64_t n) {
  return n < 2 ? n : fib_seq(n - 1) + fib_seq(n - 2);
}

std::uint64_t fib_par(std::uint64_t n, std::uint64_t cutoff) {
  if (n < cutoff) return fib_seq(n);
  auto left = spawn([=] { return fib_par(n - 1, cutoff); });
  const std::uint64_t right = fib_par(n - 2, cutoff);
  return left.touch() + right;
}

long reduce_par(const std::vector<int>& data, std::size_t lo, std::size_t hi,
                std::size_t grain) {
  if (hi - lo <= grain)
    return std::accumulate(data.begin() + static_cast<std::ptrdiff_t>(lo),
                           data.begin() + static_cast<std::ptrdiff_t>(hi),
                           0L);
  const std::size_t mid = lo + (hi - lo) / 2;
  auto left = spawn([&, lo, mid] { return reduce_par(data, lo, mid, grain); });
  const long right = reduce_par(data, mid, hi, grain);
  return left.touch() + right;
}

void qsort_par(std::vector<int>& v, std::ptrdiff_t lo, std::ptrdiff_t hi) {
  if (hi - lo < 2048) {
    std::sort(v.begin() + lo, v.begin() + hi);
    return;
  }
  const int pivot = v[lo + (hi - lo) / 2];
  const auto mid1 = std::partition(v.begin() + lo, v.begin() + hi,
                                   [&](int x) { return x < pivot; });
  const auto mid2 =
      std::partition(mid1, v.begin() + hi, [&](int x) { return x == pivot; });
  const std::ptrdiff_t m1 = mid1 - v.begin();
  const std::ptrdiff_t m2 = mid2 - v.begin();
  auto left = spawn([&v, lo, m1] { qsort_par(v, lo, m1); });
  qsort_par(v, m2, hi);
  left.touch();
}

ForkPolicy policy_of(const benchmark::State& state) {
  return state.range(0) == 0 ? ForkPolicy::FutureFirst
                             : ForkPolicy::ParentFirst;
}

void report_counters(benchmark::State& state, const Scheduler& sched) {
  const auto total = sched.counters().total();
  state.counters["spawns"] = static_cast<double>(total.spawns);
  state.counters["steals"] = static_cast<double>(total.steals);
  state.counters["parked"] = static_cast<double>(total.parked_touches);
  state.counters["migrations"] = static_cast<double>(total.migrations);
}

void BM_Fib(benchmark::State& state) {
  RuntimeOptions opts;
  opts.workers = 2;
  opts.policy = policy_of(state);
  Scheduler sched(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.run([] { return fib_par(22, 12); }));
  }
  report_counters(state, sched);
  state.SetLabel(to_string(opts.policy));
}
BENCHMARK(BM_Fib)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Reduce(benchmark::State& state) {
  RuntimeOptions opts;
  opts.workers = 2;
  opts.policy = policy_of(state);
  Scheduler sched(opts);
  std::vector<int> data(1 << 18);
  std::iota(data.begin(), data.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched.run([&] { return reduce_par(data, 0, data.size(), 4096); }));
  }
  report_counters(state, sched);
  state.SetLabel(to_string(opts.policy));
}
BENCHMARK(BM_Reduce)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Quicksort(benchmark::State& state) {
  RuntimeOptions opts;
  opts.workers = 2;
  opts.policy = policy_of(state);
  Scheduler sched(opts);
  std::vector<int> base(1 << 16);
  wsf::support::Xoshiro256 rng(7);
  for (auto& x : base) x = static_cast<int>(rng.next() & 0xffffff);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<int> v = base;
    state.ResumeTiming();
    sched.run([&] {
      qsort_par(v, 0, static_cast<std::ptrdiff_t>(v.size()));
    });
    benchmark::DoNotOptimize(v.data());
  }
  report_counters(state, sched);
  state.SetLabel(to_string(opts.policy));
}
BENCHMARK(BM_Quicksort)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_PipelineFutures(benchmark::State& state) {
  // Figure 5(b)-style chain: each stage receives the previous stage's
  // future and touches it (the passing pattern the paper legitimizes).
  RuntimeOptions opts;
  opts.workers = 2;
  opts.policy = policy_of(state);
  Scheduler sched(opts);
  for (auto _ : state) {
    const int result = sched.run([] {
      Future<int> prev = spawn([] { return 0; });
      for (int i = 1; i <= 256; ++i) {
        prev = spawn([p = std::move(prev)]() mutable {
          return p.touch() + 1;
        });
      }
      return prev.touch();
    });
    benchmark::DoNotOptimize(result);
  }
  report_counters(state, sched);
  state.SetLabel(to_string(opts.policy));
}
BENCHMARK(BM_PipelineFutures)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SpawnTouchOverhead(benchmark::State& state) {
  RuntimeOptions opts;
  opts.workers = 1;
  opts.policy = policy_of(state);
  Scheduler sched(opts);
  for (auto _ : state) {
    const int result = sched.run([] {
      int sum = 0;
      for (int i = 0; i < 1000; ++i) {
        auto f = spawn([i] { return i; });
        sum += f.touch();
      }
      return sum;
    });
    benchmark::DoNotOptimize(result);
  }
  report_counters(state, sched);
  state.SetLabel(to_string(opts.policy));
}
BENCHMARK(BM_SpawnTouchOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
