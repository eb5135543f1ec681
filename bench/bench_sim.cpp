// Simulation throughput (§3.3 "simulation" feature): virtual executions
// per second vs process size and role contention, and what simulating
// costs on top of executing the process on the engine.

#include <benchmark/benchmark.h>

#include "wfsim/sim.h"
#include "bench_common.h"

namespace exotica::bench {
namespace {

void BM_SimulateChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  std::string process = SetupChainProcess(&store, &programs, n);

  wfsim::SimConfig cfg;
  cfg.trials = 100;
  cfg.default_profile.duration = wfsim::DurationModel::Exponential(1000);

  for (auto _ : state) {
    auto r = wfsim::Simulate(store, process, cfg);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r->MakespanMean());
  }
  state.counters["virtual_activities/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * cfg.trials * n,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateChain)->Arg(10)->Arg(100);

void BM_SimulateVsExecute(benchmark::State& state) {
  // What simulating costs on top of the engine floor: a simulated trial
  // runs the same engine as an execution with no-op programs, plus the
  // simulator's event queue, sampled durations and RCs, and the
  // CompleteAsync report of every finish.
  const int n = 50;
  const bool simulate = state.range(0) == 1;
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  std::string process = SetupChainProcess(&store, &programs, n);

  if (simulate) {
    wfsim::SimConfig cfg;
    cfg.trials = 1;
    for (auto _ : state) {
      auto r = wfsim::Simulate(store, process, cfg);
      if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    }
  } else {
    for (auto _ : state) {
      wfrt::Engine engine(&store, &programs);
      auto id = engine.RunToCompletion(process);
      if (!id.ok()) state.SkipWithError(id.status().ToString().c_str());
    }
  }
  state.SetLabel(simulate ? "simulate" : "execute");
}
BENCHMARK(BM_SimulateVsExecute)->Arg(0)->Arg(1);

void BM_SimulateRoleContention(benchmark::State& state) {
  const int capacity = static_cast<int>(state.range(0));
  constexpr int kWidth = 16;
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  SetupConstProgram(&store, &programs, "ok", 0);

  wf::ProcessBuilder b(&store, "reviews");
  b.Program("Start", "ok");
  for (int i = 0; i < kWidth; ++i) {
    b.Program("R" + std::to_string(i), "ok").Manual().Role("reviewer");
    b.Connect("Start", "R" + std::to_string(i));
  }
  if (!b.Register().ok()) std::abort();

  wfsim::SimConfig cfg;
  cfg.trials = 200;
  cfg.default_profile.duration = wfsim::DurationModel::Exponential(1000);
  cfg.role_capacity["reviewer"] = capacity;

  Micros mean = 0;
  for (auto _ : state) {
    auto r = wfsim::Simulate(store, "reviews", cfg);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    mean = r->MakespanMean();
  }
  state.counters["mean_makespan_us"] = static_cast<double>(mean);
}
BENCHMARK(BM_SimulateRoleContention)->Arg(1)->Arg(4)->Arg(16);

}  // namespace
}  // namespace exotica::bench
