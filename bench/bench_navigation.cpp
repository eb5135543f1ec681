// Experiment F1/E1 substrate: raw navigation cost of the workflow engine —
// the per-activity and per-connector overhead every translated transaction
// model pays. Counters report activities navigated per second.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace exotica::bench {
namespace {

// Sequential chain of N activities: one instance end to end.
void BM_ChainNavigation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  std::string process = SetupChainProcess(&store, &programs, n);

  for (auto _ : state) {
    wfrt::Engine engine(&store, &programs);
    auto id = engine.RunToCompletion(process);
    if (!id.ok()) state.SkipWithError(id.status().ToString().c_str());
  }
  state.counters["activities/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ChainNavigation)->Arg(1)->Arg(10)->Arg(20)->Arg(100)->Arg(1000);

// Fan-out of width W from one source: parallel-branch navigation.
void BM_FanOutNavigation(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  SetupConstProgram(&store, &programs, "ok", 0);
  wf::ProcessBuilder b(&store, "fan");
  b.Program("Root", "ok");
  for (int i = 0; i < w; ++i) {
    b.Program("L" + std::to_string(i), "ok");
    b.Connect("Root", "L" + std::to_string(i), "RC = 0");
  }
  if (!b.Register().ok()) std::abort();

  for (auto _ : state) {
    wfrt::Engine engine(&store, &programs);
    auto id = engine.RunToCompletion("fan");
    if (!id.ok()) state.SkipWithError(id.status().ToString().c_str());
  }
  state.counters["activities/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * (w + 1),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FanOutNavigation)->Arg(8)->Arg(64)->Arg(256);

// Data-connector cost: chain where every hop copies K fields.
void BM_DataFlowNavigation(benchmark::State& state) {
  const int fields = static_cast<int>(state.range(0));
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;

  data::StructType t("Wide");
  for (int i = 0; i < fields; ++i) {
    (void)t.AddScalar("f" + std::to_string(i), data::ScalarType::kLong,
                      data::Value(int64_t{i}));
  }
  if (!store.types().Register(std::move(t)).ok()) std::abort();
  wf::ProgramDeclaration decl;
  decl.name = "wide";
  decl.input_type = "Wide";
  decl.output_type = "Wide";
  if (!store.DeclareProgram(decl).ok()) std::abort();
  if (!programs.Bind("wide",
                     [](const data::Container& in, data::Container* out,
                        const wfrt::ProgramContext&) -> Status {
                       for (const std::string& p : in.paths()) {
                         EXO_ASSIGN_OR_RETURN(data::Value v, in.Get(p));
                         EXO_RETURN_NOT_OK(out->Set(p, v));
                       }
                       return Status::OK();
                     })
           .ok()) {
    std::abort();
  }

  constexpr int kHops = 10;
  wf::ProcessBuilder b(&store, "wideflow");
  wf::ProcessBuilder::FieldPairs pairs;
  for (int i = 0; i < fields; ++i) {
    pairs.emplace_back("f" + std::to_string(i), "f" + std::to_string(i));
  }
  for (int i = 0; i < kHops; ++i) {
    b.Program("A" + std::to_string(i), "wide");
    if (i > 0) {
      b.Connect("A" + std::to_string(i - 1), "A" + std::to_string(i));
      b.MapData("A" + std::to_string(i - 1), "A" + std::to_string(i), pairs);
    }
  }
  if (!b.Register().ok()) std::abort();

  for (auto _ : state) {
    wfrt::Engine engine(&store, &programs);
    auto id = engine.RunToCompletion("wideflow");
    if (!id.ok()) state.SkipWithError(id.status().ToString().c_str());
  }
  state.counters["fields/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * fields * (kHops - 1),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DataFlowNavigation)->Arg(1)->Arg(16)->Arg(64);

// Journaling overhead: the same chain with an attached journal.
void BM_ChainWithJournal(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  std::string process = SetupChainProcess(&store, &programs, n);

  for (auto _ : state) {
    wfjournal::MemoryJournal journal;
    wfrt::Engine engine(&store, &programs);
    if (!engine.AttachJournal(&journal).ok()) std::abort();
    auto id = engine.RunToCompletion(process);
    if (!id.ok()) state.SkipWithError(id.status().ToString().c_str());
    benchmark::DoNotOptimize(journal.size());
  }
  state.counters["activities/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ChainWithJournal)->Arg(10)->Arg(100)->Arg(1000);

// Block nesting depth: one activity per level, D levels.
void BM_NestedBlocks(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  SetupConstProgram(&store, &programs, "ok", 0);

  wf::ProcessBuilder leaf(&store, "lvl0");
  leaf.Program("X", "ok");
  if (!leaf.Register().ok()) std::abort();
  for (int d = 1; d <= depth; ++d) {
    wf::ProcessBuilder b(&store, "lvl" + std::to_string(d));
    b.Block("B", "lvl" + std::to_string(d - 1));
    if (!b.Register().ok()) std::abort();
  }
  std::string root = "lvl" + std::to_string(depth);

  for (auto _ : state) {
    wfrt::Engine engine(&store, &programs);
    auto id = engine.RunToCompletion(root);
    if (!id.ok()) state.SkipWithError(id.status().ToString().c_str());
  }
  state.counters["levels/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * (depth + 1),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NestedBlocks)->Arg(1)->Arg(8)->Arg(32);

}  // namespace
}  // namespace exotica::bench
