// Chaos-hook overhead budget: the chaos hooks must be cheap enough to stay
// compiled in.
//
// google-benchmark pairs on the real scheduler: fib with no policy
// installed (each chaos point is one relaxed/acquire load + branch on a
// null pointer), the same fib with an inert policy installed (the virtual
// dispatch cost with all perturbation chances at zero), and with a mildly
// adversarial seeded policy (what a stress run actually pays).
#include <benchmark/benchmark.h>

#include "runtime/scheduler.hpp"
#include "stress/chaos.hpp"
#include "workloads/fib.hpp"

namespace {

using cilkpp::rt::context;
using cilkpp::rt::scheduler;
using cilkpp::stress::chaos_params;
using cilkpp::stress::seeded_chaos;

constexpr unsigned kFibN = 27;
constexpr unsigned kFibCutoff = 12;  // small grain → many chaos points

void BM_fib_no_policy(benchmark::State& state) {
  const auto workers = static_cast<unsigned>(state.range(0));
  scheduler sched(workers);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.run(
        [](context& ctx) { return cilkpp::workloads::fib(ctx, kFibN, kFibCutoff); }));
  }
}
BENCHMARK(BM_fib_no_policy)->Arg(1)->Arg(4);

void BM_fib_null_policy(benchmark::State& state) {
  // All chances zero: measures the hook dispatch itself, not the chaos.
  const auto workers = static_cast<unsigned>(state.range(0));
  scheduler sched(workers);
  seeded_chaos policy(chaos_params{}, /*seed=*/0, sched.num_workers());
  sched.install_chaos(&policy);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.run(
        [](context& ctx) { return cilkpp::workloads::fib(ctx, kFibN, kFibCutoff); }));
  }
  sched.remove_chaos();
  state.counters["points"] =
      benchmark::Counter(static_cast<double>(policy.stats().points));
}
BENCHMARK(BM_fib_null_policy)->Arg(1)->Arg(4);

void BM_fib_seeded_chaos(benchmark::State& state) {
  const auto workers = static_cast<unsigned>(state.range(0));
  scheduler sched(workers);
  seeded_chaos policy(/*seed=*/1, sched.num_workers());
  sched.install_chaos(&policy);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.run(
        [](context& ctx) { return cilkpp::workloads::fib(ctx, kFibN, kFibCutoff); }));
  }
  sched.remove_chaos();
  const cilkpp::stress::chaos_stats s = policy.stats();
  state.counters["points"] = benchmark::Counter(static_cast<double>(s.points));
  state.counters["yields"] = benchmark::Counter(static_cast<double>(s.yields));
  state.counters["sleeps"] = benchmark::Counter(static_cast<double>(s.sleeps));
}
BENCHMARK(BM_fib_seeded_chaos)->Arg(1)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
