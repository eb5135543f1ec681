// Experiment E2: forward recovery cost — journal replay + resume time as
// a function of journal length, the journaling write amplification, and
// (E2b) navigation throughput under injected program/journal faults.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "wfjournal/faulty.h"
#include "wfjournal/journal.h"
#include "wfrt/faults.h"
#include "wfrt/fleet.h"
#include "bench_common.h"

namespace exotica::bench {
namespace {

// Builds a journal by running `instances` chain-of-n processes to
// completion.
wfjournal::MemoryJournal BuildJournal(wf::DefinitionStore* store,
                                      wfrt::ProgramRegistry* programs, int n,
                                      int instances) {
  std::string process = SetupChainProcess(store, programs, n);
  wfjournal::MemoryJournal journal;
  wfrt::Engine engine(store, programs);
  if (!engine.AttachJournal(&journal).ok()) std::abort();
  for (int i = 0; i < instances; ++i) {
    auto id = engine.RunToCompletion(process);
    if (!id.ok()) std::abort();
  }
  return journal;
}

// Full replay of a journal of finished instances.
void BM_RecoverFinishedInstances(benchmark::State& state) {
  const int instances = static_cast<int>(state.range(0));
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  wfjournal::MemoryJournal journal =
      BuildJournal(&store, &programs, /*n=*/20, instances);

  for (auto _ : state) {
    wfrt::Engine engine(&store, &programs);
    if (!engine.AttachJournal(&journal).ok()) std::abort();
    Status st = engine.Recover();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.counters["records/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * journal.size(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RecoverFinishedInstances)->Arg(1)->Arg(10)->Arg(100);

// Crash mid-instance at a fixed fraction of the journal, then recover +
// re-run to completion: the paper's resume-from-failure-point scenario.
void BM_RecoverAndResume(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  wfjournal::MemoryJournal full =
      BuildJournal(&store, &programs, n, /*instances=*/1);
  auto records = full.ReadAll();
  if (!records.ok()) std::abort();
  const uint64_t cut = full.size() / 2;

  for (auto _ : state) {
    state.PauseTiming();
    wfjournal::MemoryJournal journal;
    for (uint64_t i = 0; i < cut; ++i) (void)journal.Append((*records)[i]);
    state.ResumeTiming();

    wfrt::Engine engine(&store, &programs);
    if (!engine.AttachJournal(&journal).ok()) std::abort();
    Status st = engine.Recover();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    st = engine.Run();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.counters["journal_cut"] = static_cast<double>(cut);
}
BENCHMARK(BM_RecoverAndResume)->Arg(10)->Arg(100)->Arg(500);

// Journal write amplification: records appended per activity navigated.
void BM_JournalAmplification(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  std::string process = SetupChainProcess(&store, &programs, n);

  uint64_t records = 0, activities = 0;
  for (auto _ : state) {
    wfjournal::MemoryJournal journal;
    wfrt::Engine engine(&store, &programs);
    if (!engine.AttachJournal(&journal).ok()) std::abort();
    auto id = engine.RunToCompletion(process);
    if (!id.ok()) state.SkipWithError(id.status().ToString().c_str());
    records += journal.size();
    activities += engine.stats().activities_executed;
  }
  state.counters["records_per_activity"] =
      static_cast<double>(records) / static_cast<double>(activities);
}
BENCHMARK(BM_JournalAmplification)->Arg(10)->Arg(100);

// File-journal durability cost: with and without fsync per record.
void BM_FileJournalAppend(benchmark::State& state) {
  const bool fsync_each = state.range(0) == 1;
  std::string path = "/tmp/exo_bench_journal.log";
  std::remove(path.c_str());
  auto journal = wfjournal::FileJournal::Open(path, fsync_each);
  if (!journal.ok()) std::abort();

  wfjournal::Record r;
  r.type = wfjournal::EventType::kActivityFinished;
  r.instance = "wf-1";
  r.activity = "A";
  r.payload = "RC=0\n";
  for (auto _ : state) {
    Status st = (*journal)->Append(r);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetLabel(fsync_each ? "fsync-each" : "buffered");
  state.counters["records/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  std::remove(path.c_str());
}
BENCHMARK(BM_FileJournalAppend)->Arg(0)->Arg(1);

// E2c: snapshot checkpoints flatten recovery cost against history
// length. The journal holds `history` finished instances plus one live
// suspended one; with snap:1 a checkpoint truncates the finished history
// behind a snapshot, so replay cost tracks the live set, not the past.
void BM_RecoverAfterHistory(benchmark::State& state) {
  const int history = static_cast<int>(state.range(0));
  const bool snapshot = state.range(1) == 1;
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  std::string process = SetupChainProcess(&store, &programs, 20);

  wfjournal::MemoryJournal journal;
  {
    wfrt::Engine engine(&store, &programs);
    if (!engine.AttachJournal(&journal).ok()) std::abort();
    for (int i = 0; i < history; ++i) {
      if (!engine.RunToCompletion(process).ok()) std::abort();
    }
    auto live = engine.StartProcess(process);
    if (!live.ok()) std::abort();
    if (!engine.SuspendInstance(*live).ok()) std::abort();
    if (!engine.Run().ok()) std::abort();
    if (snapshot && !engine.Checkpoint().ok()) std::abort();
  }

  uint64_t replayed = 0;
  uint64_t rebuilt = 0;
  for (auto _ : state) {
    wfrt::Engine engine(&store, &programs);
    if (!engine.AttachJournal(&journal).ok()) std::abort();
    Status st = engine.Recover();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    replayed = engine.stats().recovery_records_replayed;
    rebuilt = engine.stats().arena_spinups;
  }
  // Exact work counters beside the timing: CI's flatness gate checks that
  // both snap:1 rows replay the same records and rebuild the same
  // instances (tools/check_bench_regression.py).
  state.counters["records_replayed"] = static_cast<double>(replayed);
  state.counters["arena_spinups"] = static_cast<double>(rebuilt);
  state.counters["journal_records"] =
      static_cast<double>(journal.size() - journal.first_seq());
}
BENCHMARK(BM_RecoverAfterHistory)
    ->ArgsProduct({{10, 100}, {0, 1}})
    ->ArgNames({"history", "snap"});

// E2c: parallel sharded recovery — the same total history replays across
// 1 vs 4 per-engine journal shards, one recovery thread per shard.
void BM_FleetRecoverSharded(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  // Large enough that replay work dwarfs the per-iteration thread
  // spawn/join cost the parallel path pays.
  const int kTotalInstances = 1024;
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  std::string process = SetupChainProcess(&store, &programs, 20);

  // Build each shard's history directly on its engine: deterministic
  // shard contents, no steal traffic muddying the comparison.
  std::vector<std::unique_ptr<wfjournal::MemoryJournal>> owned;
  std::vector<wfjournal::Journal*> journals;
  for (int e = 0; e < shards; ++e) {
    owned.push_back(std::make_unique<wfjournal::MemoryJournal>());
    journals.push_back(owned.back().get());
  }
  {
    wfrt::EngineFleet fleet(&store, &programs, shards);
    if (!fleet.AttachJournals(journals).ok()) std::abort();
    for (int e = 0; e < shards; ++e) {
      for (int i = 0; i < kTotalInstances / shards; ++i) {
        if (!fleet.engine(e)->RunToCompletion(process).ok()) std::abort();
      }
      auto live = fleet.engine(e)->StartProcess(process);
      if (!live.ok()) std::abort();
      if (!fleet.engine(e)->SuspendInstance(*live).ok()) std::abort();
      if (!fleet.engine(e)->Run().ok()) std::abort();
    }
  }

  uint64_t replayed = 0;
  for (auto _ : state) {
    wfrt::EngineFleet fleet(&store, &programs, shards);
    if (!fleet.AttachJournals(journals).ok()) std::abort();
    auto report = fleet.Recover();
    if (!report.ok()) state.SkipWithError(report.status().ToString().c_str());
    replayed = report->records_replayed;
  }
  state.counters["records_replayed"] = static_cast<double>(replayed);
}
BENCHMARK(BM_FleetRecoverSharded)->Arg(1)->Arg(4)->ArgName("shards");

// E2b: navigation throughput with a deterministic transient-fault rate —
// the retry tax of the paper's restart-from-the-beginning model. Arg is
// the per-attempt crash probability in per-mille.
void BM_NavigationUnderTransientFaults(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) / 1000.0;
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  std::string process = SetupChainProcess(&store, &programs, 50);

  wfrt::FaultPlan plan(1234);
  wfrt::FaultProfile profile;
  profile.transient_probability = rate;
  plan.SetDefaultProfile(profile);
  if (!plan.Instrument(&programs).ok()) std::abort();

  uint64_t activities = 0, retries = 0;
  for (auto _ : state) {
    wfrt::Engine engine(&store, &programs);
    auto id = engine.RunToCompletion(process);
    if (!id.ok()) state.SkipWithError(id.status().ToString().c_str());
    activities += engine.stats().activities_executed;
    retries += engine.stats().retries;
  }
  state.counters["activities/s"] = benchmark::Counter(
      static_cast<double>(activities), benchmark::Counter::kIsRate);
  state.counters["retry_ratio"] =
      static_cast<double>(retries) / static_cast<double>(activities);
}
BENCHMARK(BM_NavigationUnderTransientFaults)->Arg(0)->Arg(50)->Arg(200);

// E2b: the full crash-recover-resume cycle when the journal device fails
// mid-run — engine 1 dies on an injected append error at the journal
// midpoint, engine 2 replays the surviving prefix and finishes the work.
void BM_RecoveryUnderJournalFaults(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  std::string process = SetupChainProcess(&store, &programs, n);

  // Reference append count for the midpoint fault.
  uint64_t total = 0;
  {
    wfjournal::MemoryJournal mem;
    wfrt::Engine engine(&store, &programs);
    if (!engine.AttachJournal(&mem).ok()) std::abort();
    if (!engine.RunToCompletion(process).ok()) std::abort();
    total = mem.size();
  }

  for (auto _ : state) {
    wfjournal::MemoryJournal mem;
    wfjournal::FaultyJournal faulty(&mem);
    faulty.FailAppendAt(total / 2, wfjournal::FaultyJournal::FaultMode::kAppendError);
    {
      wfrt::Engine engine(&store, &programs);
      if (!engine.AttachJournal(&faulty).ok()) std::abort();
      auto id = engine.StartProcess(process);
      if (!id.ok()) state.SkipWithError(id.status().ToString().c_str());
      (void)engine.Run();  // dies on the injected fault
    }
    wfrt::Engine engine(&store, &programs);
    if (!engine.AttachJournal(&mem).ok()) std::abort();
    Status st = engine.Recover();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    st = engine.Run();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.counters["journal_records"] = static_cast<double>(total);
}
BENCHMARK(BM_RecoveryUnderJournalFaults)->Arg(50)->Arg(200);

}  // namespace
}  // namespace exotica::bench
