// Fleet scaling: instance throughput vs engine count, with and without
// data-site contention — the scaling dimension FlowMark-style deployments
// rely on (concurrency across instances, not within one). Plus the two
// schedulers head-to-head on a skewed batch.

#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

#include "atm/flex.h"
#include "atm/saga.h"
#include "exotica/flex_translate.h"
#include "exotica/programs.h"
#include "exotica/saga_translate.h"
#include "txn/multidb.h"
#include "wfrt/fleet.h"
#include "bench_common.h"

namespace exotica::bench {
namespace {

// Pure navigation: no shared resources at all.
void BM_FleetNavigationScaling(benchmark::State& state) {
  const int engines = static_cast<int>(state.range(0));
  constexpr int kInstances = 64;
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  std::string process = SetupChainProcess(&store, &programs, 20);

  for (auto _ : state) {
    wfrt::EngineFleet fleet(&store, &programs, engines);
    auto result = fleet.RunBatch(process, kInstances);
    if (!result.ok() || !result->ok()) {
      state.SkipWithError("batch failed");
    }
  }
  state.counters["instances/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kInstances,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FleetNavigationScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// Sagas over a shared multidatabase: engines contend on the sites.
void BM_FleetSagaScaling(benchmark::State& state) {
  const int engines = static_cast<int>(state.range(0));
  constexpr int kInstances = 32;

  txn::MultiDatabase mdb;
  (void)mdb.AddSite("a");
  (void)mdb.AddSite("b");
  atm::MultiDbRunner runner(&mdb);
  int key_counter = 0;
  auto body = [&key_counter](txn::Transaction& t) {
    // Distinct keys: contention on the site, not on one row.
    return t.Put("k" + std::to_string(key_counter++ % 64),
                 data::Value(int64_t{1}));
  };
  (void)runner.Register({"T1", "a", body, [](txn::Transaction& t) {
                           return t.Put("c", data::Value(int64_t{0}));
                         }});
  (void)runner.Register({"T2", "b", body, [](txn::Transaction& t) {
                           return t.Put("c", data::Value(int64_t{0}));
                         }});

  atm::SagaSpec spec("S");
  spec.Then("T1").Then("T2");
  wf::DefinitionStore store;
  auto translation = exo::TranslateSaga(spec, &store);
  if (!translation.ok()) std::abort();
  wfrt::ProgramRegistry programs;
  if (!exo::BindSagaPrograms(spec, store, &runner, &programs).ok()) std::abort();

  for (auto _ : state) {
    wfrt::EngineFleet fleet(&store, &programs, engines);
    auto result = fleet.RunBatch(translation->root_process, kInstances);
    if (!result.ok() || !result->ok()) {
      state.SkipWithError("batch failed");
    }
  }
  state.counters["sagas/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kInstances,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FleetSagaScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// A runner whose every subtransaction sleeps: workflow "work" that
// occupies wall clock without occupying the CPU, so engine threads
// overlap even on one core.
class SleepRunner : public atm::SubTxnRunner {
 public:
  explicit SleepRunner(int64_t micros) : micros_(micros) {}
  Result<bool> Run(const std::string&) override {
    std::this_thread::sleep_for(std::chrono::microseconds(micros_));
    return true;
  }
  Result<bool> Compensate(const std::string&) override { return true; }

 private:
  int64_t micros_;
};

// Skewed batch: four heavy flexible transactions (Figure 3, every
// subtransaction a multi-ms sleep) interleaved with twelve light sagas
// as [heavy, light, light, light] x 4. Greedy seed assignment is
// count-fair and breaks ties toward the lowest-index engine, so this
// ordering lands every heavy flex on engine 0 — four instances each,
// wildly different cost. Stealing drains engine 0's backlog onto the
// idle peers. range(0) toggles the scheduler.
void BM_FleetSkewedBatch(benchmark::State& state) {
  const bool stealing = state.range(0) != 0;
  constexpr int kEngines = 4;

  atm::FlexSpec flex = atm::MakeFigure3Spec();
  SleepRunner heavy_runner(1000);
  atm::SagaSpec light("Light");
  light.Then("L1").Then("L2");
  SleepRunner light_runner(500);

  wf::DefinitionStore store;
  auto ft = exo::TranslateFlex(flex, &store);
  auto lt = exo::TranslateSaga(light, &store);
  if (!ft.ok() || !lt.ok()) std::abort();
  wfrt::ProgramRegistry programs;
  if (!exo::BindFlexPrograms(flex, store, &heavy_runner, &programs).ok() ||
      !exo::BindSagaPrograms(light, store, &light_runner, &programs).ok()) {
    std::abort();
  }

  std::vector<wfrt::EngineFleet::BatchSeed> seeds;
  for (int i = 0; i < kEngines; ++i) {
    seeds.push_back({ft->root_process, nullptr});
    for (int j = 0; j < 3; ++j) {
      seeds.push_back({lt->root_process, nullptr});
    }
  }

  wfrt::FleetOptions fo;
  fo.work_stealing = stealing;
  fo.steal_slice = 1;  // serve thieves after every pop: sleeps dominate

  for (auto _ : state) {
    wfrt::EngineFleet fleet(&store, &programs, kEngines, {}, fo);
    auto result = fleet.RunBatch(seeds);
    if (!result.ok() || !result->ok()) {
      state.SkipWithError("batch failed");
      break;
    }
    state.counters["stolen"] = static_cast<double>(
        result->aggregate.instances_stolen);
  }
  state.counters["batches/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FleetSkewedBatch)
    ->Arg(0)->Arg(1)
    ->ArgName("stealing")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace exotica::bench

// Custom main (instead of benchmark_main) so the execution environment
// lands in the JSON context: scheduling benchmarks are meaningless
// without knowing how many CPUs backed the worker threads.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext(
      "num_cpus_available",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("thread_pinning", "none (OS scheduler)");
  benchmark::AddCustomContext("fleet_worker_model",
                              "one thread per engine, sleeps overlap");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
