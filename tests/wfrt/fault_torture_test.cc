// Fault-torture harness: enumerate fault schedules — a program crash at
// every (activity, attempt) point and a journal I/O failure at every
// append index — over the paper's two example transaction models and
// assert the guarantees survive every one of them:
//
//   saga (§4.1, trip example):  T1..Tn  or  T1..Tj; Cj..C1
//   flex (§4.2, ZNBB94 Fig. 3): exactly one of p1/p2/p3 commits, or the
//                               whole transaction compensates away
//
// The external world is an idempotent runner whose effects persist across
// engine crashes — the at-least-once re-execution caveat of §3.3 made
// explicit: a committed subtransaction re-run after recovery is a no-op.

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "atm/flex.h"
#include "atm/saga.h"
#include "atm/subtxn.h"
#include "exotica/flex_translate.h"
#include "exotica/programs.h"
#include "exotica/saga_translate.h"
#include "wf/builder.h"
#include "wfjournal/faulty.h"
#include "wfjournal/journal.h"
#include "wfrt/engine.h"
#include "wfrt/faults.h"
#include "../testutil.h"

namespace exotica {
namespace {

using wfjournal::FaultyJournal;
using wfjournal::MemoryJournal;

// Deterministic external world with durable, idempotent effects: each
// subtransaction either always aborts (scripted) or commits on first run;
// re-running a committed subtransaction or an already-applied compensation
// changes nothing. This is what the paper demands of activities under
// at-least-once re-execution.
class IdempotentRunner : public atm::SubTxnRunner {
 public:
  explicit IdempotentRunner(std::set<std::string> always_abort = {})
      : always_abort_(std::move(always_abort)) {}

  Result<bool> Run(const std::string& name) override {
    if (always_abort_.count(name)) return false;
    if (committed_.insert(name).second) commit_order_.push_back(name);
    return true;
  }
  Result<bool> Compensate(const std::string& name) override {
    if (compensated_.insert(name).second) comp_order_.push_back(name);
    return true;
  }

  /// Net committed effects (committed minus compensated), first-commit
  /// order.
  std::vector<std::string> effective() const {
    std::vector<std::string> out;
    for (const auto& name : commit_order_) {
      if (!compensated_.count(name)) out.push_back(name);
    }
    return out;
  }
  const std::vector<std::string>& comp_order() const { return comp_order_; }

 private:
  std::set<std::string> always_abort_;
  std::set<std::string> committed_;
  std::set<std::string> compensated_;
  std::vector<std::string> commit_order_;
  std::vector<std::string> comp_order_;
};

std::set<std::string> AsSet(const std::vector<std::string>& v) {
  return std::set<std::string>(v.begin(), v.end());
}

// ---------------------------------------------------------------------------
// Saga: the Trip running example (Flight, Hotel, Car).

const std::vector<std::string> kTripSteps = {"Flight", "Hotel", "Car"};

atm::SagaSpec TripSaga() {
  atm::SagaSpec spec("Trip");
  for (const auto& step : kTripSteps) spec.Then(step);
  return spec;
}

std::set<std::string> AbortSetFor(int abort_at) {
  std::set<std::string> aborts;
  if (abort_at > 0) aborts.insert(kTripSteps[static_cast<size_t>(abort_at - 1)]);
  return aborts;
}

// The saga guarantee for an abort at step `abort_at` (1-based; 0 = no
// abort): either everything committed and nothing was compensated, or
// nothing is net-committed and the committed prefix was compensated in
// reverse order.
void CheckSagaGuarantee(const IdempotentRunner& runner, int abort_at) {
  if (abort_at == 0) {
    EXPECT_EQ(runner.effective(), kTripSteps);
    EXPECT_TRUE(runner.comp_order().empty());
  } else {
    EXPECT_TRUE(runner.effective().empty());
    std::vector<std::string> expect(
        kTripSteps.begin(), kTripSteps.begin() + (abort_at - 1));
    std::reverse(expect.begin(), expect.end());
    EXPECT_EQ(runner.comp_order(), expect);
  }
}

// Wraps every bound program to record which activity names actually invoke
// programs — the crash enumeration's schedule domain.
void SpyActivities(wfrt::ProgramRegistry* programs,
                   std::set<std::string>* activities) {
  for (const auto& name : programs->BoundNames()) {
    auto fn = programs->Find(name);
    ASSERT_TRUE(fn.ok());
    wfrt::ProgramFn inner = **fn;
    ASSERT_TRUE(programs
                    ->Rebind(name,
                             [inner, activities](const data::Container& in,
                                                 data::Container* out,
                                                 const wfrt::ProgramContext& ctx) {
                               activities->insert(ctx.activity);
                               return inner(in, out, ctx);
                             })
                    .ok());
  }
}

TEST(FaultTortureTest, SagaSurvivesProgramCrashAtEveryActivityAttempt) {
  atm::SagaSpec spec = TripSaga();
  wf::DefinitionStore store;
  auto t = exo::TranslateSaga(spec, &store);
  ASSERT_TRUE(t.ok()) << t.status().ToString();

  for (int abort_at = 0; abort_at <= 3; ++abort_at) {
    const std::set<std::string> aborts = AbortSetFor(abort_at);

    // Fault-free spy run: the guarantee holds and we learn the activity
    // names to enumerate crashes over.
    std::set<std::string> activities;
    {
      IdempotentRunner runner(aborts);
      wfrt::ProgramRegistry programs;
      ASSERT_TRUE(exo::BindSagaPrograms(spec, store, &runner, &programs).ok());
      SpyActivities(&programs, &activities);
      wfrt::Engine engine(&store, &programs);
      auto id = engine.RunToCompletion(t->root_process);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      CheckSagaGuarantee(runner, abort_at);
    }
    ASSERT_FALSE(activities.empty());

    // A transient crash at every (activity, attempt <= 3) point: the
    // default retry policy absorbs it and the outcome must not change.
    for (const auto& activity : activities) {
      for (int attempt = 1; attempt <= 3; ++attempt) {
        SCOPED_TRACE("abort_at=" + std::to_string(abort_at) + " crash at (" +
                     activity + ", attempt " + std::to_string(attempt) + ")");
        IdempotentRunner runner(aborts);
        wfrt::ProgramRegistry programs;
        ASSERT_TRUE(
            exo::BindSagaPrograms(spec, store, &runner, &programs).ok());
        wfrt::FaultPlan plan;
        plan.CrashAt(activity, attempt);
        ASSERT_TRUE(plan.Instrument(&programs).ok());
        wfrt::Engine engine(&store, &programs);
        auto id = engine.RunToCompletion(t->root_process);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        CheckSagaGuarantee(runner, abort_at);
      }
    }
  }
}

TEST(FaultTortureTest, SagaSurvivesJournalFaultAtEveryAppendIndex) {
  atm::SagaSpec spec = TripSaga();
  wf::DefinitionStore store;
  auto t = exo::TranslateSaga(spec, &store);
  ASSERT_TRUE(t.ok()) << t.status().ToString();

  for (int abort_at = 0; abort_at <= 3; ++abort_at) {
    const std::set<std::string> aborts = AbortSetFor(abort_at);

    // Reference run counts the appends to enumerate over.
    uint64_t total_appends = 0;
    {
      IdempotentRunner runner(aborts);
      wfrt::ProgramRegistry programs;
      ASSERT_TRUE(exo::BindSagaPrograms(spec, store, &runner, &programs).ok());
      MemoryJournal mem;
      FaultyJournal counting(&mem);
      wfrt::Engine engine(&store, &programs);
      ASSERT_TRUE(engine.AttachJournal(&counting).ok());
      auto id = engine.RunToCompletion(t->root_process);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      total_appends = counting.appends();
    }
    ASSERT_GT(total_appends, 0u);

    for (uint64_t k = 0; k < total_appends; ++k) {
      SCOPED_TRACE("abort_at=" + std::to_string(abort_at) +
                   " journal fault at append " + std::to_string(k));
      IdempotentRunner runner(aborts);
      MemoryJournal mem;
      FaultyJournal faulty(&mem);
      faulty.FailAppendAt(k, FaultyJournal::FaultMode::kAppendError);

      // First life: the engine hits the disk fault and dies mid-run.
      {
        wfrt::ProgramRegistry programs;
        ASSERT_TRUE(
            exo::BindSagaPrograms(spec, store, &runner, &programs).ok());
        wfrt::Engine engine(&store, &programs);
        ASSERT_TRUE(engine.AttachJournal(&faulty).ok());
        auto started = engine.StartProcess(t->root_process);
        if (started.ok()) {
          EXPECT_FALSE(engine.Run().ok());
        }
        EXPECT_EQ(faulty.faults_injected(), 1u);
      }

      // Second life: recover from the surviving prefix. The runner — the
      // external world — carries its state across the crash.
      wfrt::ProgramRegistry programs;
      ASSERT_TRUE(exo::BindSagaPrograms(spec, store, &runner, &programs).ok());
      wfrt::Engine engine(&store, &programs);
      ASSERT_TRUE(engine.AttachJournal(&mem).ok());
      ASSERT_TRUE(engine.Recover().ok());
      ASSERT_TRUE(engine.Run().ok());

      if (mem.size() == 0) {
        // Even the INSTANCE_START record was lost: no instance, and the
        // world untouched.
        EXPECT_TRUE(runner.effective().empty());
        EXPECT_TRUE(runner.comp_order().empty());
        continue;
      }
      ASSERT_FALSE(engine.instance_order().empty());
      const std::string id = engine.instance_order()[0];
      ASSERT_TRUE(engine.IsFinished(id));
      CheckSagaGuarantee(runner, abort_at);
    }
  }
}

// ---------------------------------------------------------------------------
// Flexible transaction: ZNBB94 Figure 3. Every run must land on exactly
// one of the three execution paths, or compensate everything away.

const std::set<std::string> kP1 = {"T1", "T2", "T4", "T5", "T6", "T8"};
const std::set<std::string> kP2 = {"T1", "T2", "T4", "T7"};
const std::set<std::string> kP3 = {"T1", "T2", "T3"};

bool IsAllowedFlexOutcome(const std::set<std::string>& effective) {
  return effective == kP1 || effective == kP2 || effective == kP3 ||
         effective.empty();
}

struct FlexCase {
  const char* name;
  std::set<std::string> aborts;
};

const std::vector<FlexCase>& FlexCases() {
  static const std::vector<FlexCase> cases = {
      {"none", {}},           // p1 commits
      {"t5", {"T5"}},         // p2 via T7
      {"t8", {"T8"}},         // p2, compensating T5/T6
      {"t4", {"T4"}},         // p3
      {"t2", {"T2"}},         // full compensation
  };
  return cases;
}

// Reference effective set for a case: the fault-free workflow run, which
// itself must land on an allowed outcome.
std::set<std::string> FlexReference(const atm::FlexSpec& spec,
                                    const wf::DefinitionStore& store,
                                    const std::string& root,
                                    const FlexCase& c,
                                    std::set<std::string>* activities) {
  IdempotentRunner runner(c.aborts);
  wfrt::ProgramRegistry programs;
  EXPECT_TRUE(exo::BindFlexPrograms(spec, store, &runner, &programs).ok());
  if (activities != nullptr) SpyActivities(&programs, activities);
  wfrt::Engine engine(&store, &programs);
  auto id = engine.RunToCompletion(root);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  std::set<std::string> effective = AsSet(runner.effective());
  EXPECT_TRUE(IsAllowedFlexOutcome(effective)) << c.name;
  return effective;
}

TEST(FaultTortureTest, FlexSurvivesProgramCrashAtEveryActivityAttempt) {
  atm::FlexSpec spec = atm::MakeFigure3Spec();
  wf::DefinitionStore store;
  auto t = exo::TranslateFlex(spec, &store);
  ASSERT_TRUE(t.ok()) << t.status().ToString();

  for (const FlexCase& c : FlexCases()) {
    std::set<std::string> activities;
    const std::set<std::string> reference =
        FlexReference(spec, store, t->root_process, c, &activities);
    ASSERT_FALSE(activities.empty());

    for (const auto& activity : activities) {
      for (int attempt = 1; attempt <= 3; ++attempt) {
        SCOPED_TRACE(std::string(c.name) + " crash at (" + activity +
                     ", attempt " + std::to_string(attempt) + ")");
        IdempotentRunner runner(c.aborts);
        wfrt::ProgramRegistry programs;
        ASSERT_TRUE(
            exo::BindFlexPrograms(spec, store, &runner, &programs).ok());
        wfrt::FaultPlan plan;
        plan.CrashAt(activity, attempt);
        ASSERT_TRUE(plan.Instrument(&programs).ok());
        wfrt::Engine engine(&store, &programs);
        auto id = engine.RunToCompletion(t->root_process);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        // A transient crash must not move the transaction to a different
        // path, let alone an illegal one.
        EXPECT_EQ(AsSet(runner.effective()), reference);
      }
    }
  }
}

TEST(FaultTortureTest, FlexSurvivesJournalFaultAtEveryAppendIndex) {
  atm::FlexSpec spec = atm::MakeFigure3Spec();
  wf::DefinitionStore store;
  auto t = exo::TranslateFlex(spec, &store);
  ASSERT_TRUE(t.ok()) << t.status().ToString();

  for (const FlexCase& c : FlexCases()) {
    const std::set<std::string> reference =
        FlexReference(spec, store, t->root_process, c, nullptr);

    uint64_t total_appends = 0;
    {
      IdempotentRunner runner(c.aborts);
      wfrt::ProgramRegistry programs;
      ASSERT_TRUE(exo::BindFlexPrograms(spec, store, &runner, &programs).ok());
      MemoryJournal mem;
      FaultyJournal counting(&mem);
      wfrt::Engine engine(&store, &programs);
      ASSERT_TRUE(engine.AttachJournal(&counting).ok());
      auto id = engine.RunToCompletion(t->root_process);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      total_appends = counting.appends();
    }
    ASSERT_GT(total_appends, 0u);

    for (uint64_t k = 0; k < total_appends; ++k) {
      SCOPED_TRACE(std::string(c.name) + " journal fault at append " +
                   std::to_string(k));
      IdempotentRunner runner(c.aborts);
      MemoryJournal mem;
      FaultyJournal faulty(&mem);
      faulty.FailAppendAt(k, FaultyJournal::FaultMode::kAppendError);
      {
        wfrt::ProgramRegistry programs;
        ASSERT_TRUE(
            exo::BindFlexPrograms(spec, store, &runner, &programs).ok());
        wfrt::Engine engine(&store, &programs);
        ASSERT_TRUE(engine.AttachJournal(&faulty).ok());
        auto started = engine.StartProcess(t->root_process);
        if (started.ok()) {
          EXPECT_FALSE(engine.Run().ok());
        }
      }

      wfrt::ProgramRegistry programs;
      ASSERT_TRUE(exo::BindFlexPrograms(spec, store, &runner, &programs).ok());
      wfrt::Engine engine(&store, &programs);
      ASSERT_TRUE(engine.AttachJournal(&mem).ok());
      ASSERT_TRUE(engine.Recover().ok());
      ASSERT_TRUE(engine.Run().ok());

      if (mem.size() == 0) {
        EXPECT_TRUE(runner.effective().empty());
        continue;
      }
      ASSERT_FALSE(engine.instance_order().empty());
      const std::string id = engine.instance_order()[0];
      ASSERT_TRUE(engine.IsFinished(id));
      EXPECT_EQ(AsSet(runner.effective()), reference);
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot boundaries: re-run the journal-fault enumerations with
// checkpoints firing mid-workflow (small snapshot_interval, RunSlice(1)
// driving so MaybeCheckpoint sees live instances at slice quiescence).
// The crash-at-every-append-index sweep now also lands on the kSnapshot
// append itself (a torn snapshot) and on the records right after a
// completed checkpoint (post-truncate); the truncate-failure sweep covers
// the remaining window, a crash after the snapshot commits but before
// truncation runs. Every schedule must recover to the unfaulted terminal
// state.

// Drives the engine one navigation step at a time until quiescent or an
// injected fault surfaces. Checkpoints fire at slice boundaries, so a
// small snapshot_interval snapshots *live* instances mid-workflow.
Status DriveInSlices(wfrt::Engine* engine) {
  while (true) {
    bool quiescent = false;
    Status st = engine->RunSlice(1, &quiescent);
    if (!st.ok()) return st;
    if (quiescent) return Status::OK();
  }
}

wfrt::EngineOptions SnapshotEvery(uint64_t records) {
  wfrt::EngineOptions opts;
  opts.snapshot_interval = records;
  return opts;
}

TEST(SnapshotTortureTest, SagaSurvivesJournalFaultAtEveryAppendIndex) {
  atm::SagaSpec spec = TripSaga();
  wf::DefinitionStore store;
  auto t = exo::TranslateSaga(spec, &store);
  ASSERT_TRUE(t.ok()) << t.status().ToString();

  for (int abort_at = 0; abort_at <= 3; ++abort_at) {
    const std::set<std::string> aborts = AbortSetFor(abort_at);

    // Reference run with checkpoints on: count the appends and make sure
    // the schedule actually crosses snapshot boundaries mid-workflow.
    uint64_t total_appends = 0;
    {
      IdempotentRunner runner(aborts);
      wfrt::ProgramRegistry programs;
      ASSERT_TRUE(exo::BindSagaPrograms(spec, store, &runner, &programs).ok());
      MemoryJournal mem;
      FaultyJournal counting(&mem);
      wfrt::Engine engine(&store, &programs, SnapshotEvery(5));
      ASSERT_TRUE(engine.AttachJournal(&counting).ok());
      ASSERT_TRUE(engine.StartProcess(t->root_process).ok());
      ASSERT_TRUE(DriveInSlices(&engine).ok());
      ASSERT_GE(engine.stats().snapshots_written, 2u);
      CheckSagaGuarantee(runner, abort_at);
      total_appends = counting.appends();
    }

    for (uint64_t k = 0; k < total_appends; ++k) {
      SCOPED_TRACE("abort_at=" + std::to_string(abort_at) +
                   " journal fault at append " + std::to_string(k));
      IdempotentRunner runner(aborts);
      MemoryJournal mem;
      FaultyJournal faulty(&mem);
      faulty.FailAppendAt(k, FaultyJournal::FaultMode::kAppendError);

      // First life: the fault may hit a navigation append, the kSnapshot
      // append itself, or an append right after a completed truncation.
      {
        wfrt::ProgramRegistry programs;
        ASSERT_TRUE(
            exo::BindSagaPrograms(spec, store, &runner, &programs).ok());
        wfrt::Engine engine(&store, &programs, SnapshotEvery(5));
        ASSERT_TRUE(engine.AttachJournal(&faulty).ok());
        auto started = engine.StartProcess(t->root_process);
        if (started.ok()) {
          EXPECT_FALSE(DriveInSlices(&engine).ok());
        }
        EXPECT_EQ(faulty.faults_injected(), 1u);
      }

      // Second life: recover from what survives — possibly a snapshot
      // plus a suffix — under the same checkpoint policy.
      wfrt::ProgramRegistry programs;
      ASSERT_TRUE(exo::BindSagaPrograms(spec, store, &runner, &programs).ok());
      wfrt::Engine engine(&store, &programs, SnapshotEvery(5));
      ASSERT_TRUE(engine.AttachJournal(&mem).ok());
      ASSERT_TRUE(engine.Recover().ok());
      ASSERT_TRUE(engine.Run().ok());

      if (mem.size() == 0) {
        EXPECT_TRUE(runner.effective().empty());
        EXPECT_TRUE(runner.comp_order().empty());
        continue;
      }
      // A snapshot may have truncated the finished instance away; the
      // guarantee lives in the external world either way.
      if (!engine.instance_order().empty()) {
        EXPECT_TRUE(engine.IsFinished(engine.instance_order()[0]));
      }
      CheckSagaGuarantee(runner, abort_at);
    }
  }
}

TEST(SnapshotTortureTest, SagaSurvivesTruncateFailureAtEveryCheckpoint) {
  atm::SagaSpec spec = TripSaga();
  wf::DefinitionStore store;
  auto t = exo::TranslateSaga(spec, &store);
  ASSERT_TRUE(t.ok()) << t.status().ToString();

  for (int abort_at = 0; abort_at <= 3; ++abort_at) {
    const std::set<std::string> aborts = AbortSetFor(abort_at);

    uint64_t total_truncates = 0;
    {
      IdempotentRunner runner(aborts);
      wfrt::ProgramRegistry programs;
      ASSERT_TRUE(exo::BindSagaPrograms(spec, store, &runner, &programs).ok());
      MemoryJournal mem;
      FaultyJournal counting(&mem);
      wfrt::Engine engine(&store, &programs, SnapshotEvery(5));
      ASSERT_TRUE(engine.AttachJournal(&counting).ok());
      ASSERT_TRUE(engine.StartProcess(t->root_process).ok());
      ASSERT_TRUE(DriveInSlices(&engine).ok());
      total_truncates = counting.truncates();
    }
    ASSERT_GE(total_truncates, 2u);

    for (uint64_t k = 0; k < total_truncates; ++k) {
      SCOPED_TRACE("abort_at=" + std::to_string(abort_at) +
                   " truncate failure at checkpoint " + std::to_string(k));
      IdempotentRunner runner(aborts);
      MemoryJournal mem;
      FaultyJournal faulty(&mem);
      faulty.FailTruncateAt(k);

      // First life dies in the window where the k-th snapshot is durable
      // but the history behind it still exists.
      {
        wfrt::ProgramRegistry programs;
        ASSERT_TRUE(
            exo::BindSagaPrograms(spec, store, &runner, &programs).ok());
        wfrt::Engine engine(&store, &programs, SnapshotEvery(5));
        ASSERT_TRUE(engine.AttachJournal(&faulty).ok());
        ASSERT_TRUE(engine.StartProcess(t->root_process).ok());
        EXPECT_FALSE(DriveInSlices(&engine).ok());
        EXPECT_EQ(faulty.faults_injected(), 1u);
      }

      // Recovery lands on the snapshot, ignores the stale prefix, and
      // finishes both the truncation and the workflow.
      wfrt::ProgramRegistry programs;
      ASSERT_TRUE(exo::BindSagaPrograms(spec, store, &runner, &programs).ok());
      wfrt::Engine engine(&store, &programs, SnapshotEvery(5));
      ASSERT_TRUE(engine.AttachJournal(&mem).ok());
      ASSERT_TRUE(engine.Recover().ok());
      EXPECT_GT(mem.first_seq(), 0u);  // interrupted truncation completed
      ASSERT_TRUE(engine.Run().ok());
      if (!engine.instance_order().empty()) {
        EXPECT_TRUE(engine.IsFinished(engine.instance_order()[0]));
      }
      CheckSagaGuarantee(runner, abort_at);
    }
  }
}

TEST(SnapshotTortureTest, FlexSurvivesJournalFaultAtEveryAppendIndex) {
  atm::FlexSpec spec = atm::MakeFigure3Spec();
  wf::DefinitionStore store;
  auto t = exo::TranslateFlex(spec, &store);
  ASSERT_TRUE(t.ok()) << t.status().ToString();

  for (const FlexCase& c : FlexCases()) {
    const std::set<std::string> reference =
        FlexReference(spec, store, t->root_process, c, nullptr);

    uint64_t total_appends = 0;
    {
      IdempotentRunner runner(c.aborts);
      wfrt::ProgramRegistry programs;
      ASSERT_TRUE(exo::BindFlexPrograms(spec, store, &runner, &programs).ok());
      MemoryJournal mem;
      FaultyJournal counting(&mem);
      wfrt::Engine engine(&store, &programs, SnapshotEvery(8));
      ASSERT_TRUE(engine.AttachJournal(&counting).ok());
      ASSERT_TRUE(engine.StartProcess(t->root_process).ok());
      ASSERT_TRUE(DriveInSlices(&engine).ok());
      ASSERT_GE(engine.stats().snapshots_written, 1u);
      EXPECT_EQ(AsSet(runner.effective()), reference);
      total_appends = counting.appends();
    }

    for (uint64_t k = 0; k < total_appends; ++k) {
      SCOPED_TRACE(std::string(c.name) + " journal fault at append " +
                   std::to_string(k));
      IdempotentRunner runner(c.aborts);
      MemoryJournal mem;
      FaultyJournal faulty(&mem);
      faulty.FailAppendAt(k, FaultyJournal::FaultMode::kAppendError);
      {
        wfrt::ProgramRegistry programs;
        ASSERT_TRUE(
            exo::BindFlexPrograms(spec, store, &runner, &programs).ok());
        wfrt::Engine engine(&store, &programs, SnapshotEvery(8));
        ASSERT_TRUE(engine.AttachJournal(&faulty).ok());
        auto started = engine.StartProcess(t->root_process);
        if (started.ok()) {
          EXPECT_FALSE(DriveInSlices(&engine).ok());
        }
      }

      wfrt::ProgramRegistry programs;
      ASSERT_TRUE(exo::BindFlexPrograms(spec, store, &runner, &programs).ok());
      wfrt::Engine engine(&store, &programs, SnapshotEvery(8));
      ASSERT_TRUE(engine.AttachJournal(&mem).ok());
      ASSERT_TRUE(engine.Recover().ok());
      ASSERT_TRUE(engine.Run().ok());

      if (mem.size() == 0) {
        EXPECT_TRUE(runner.effective().empty());
        continue;
      }
      if (!engine.instance_order().empty()) {
        EXPECT_TRUE(engine.IsFinished(engine.instance_order()[0]));
      }
      EXPECT_EQ(AsSet(runner.effective()), reference);
    }
  }
}

// ---------------------------------------------------------------------------
// Quarantine under randomized faults: a batch on one engine keeps going —
// every instance ends finished or quarantined, never wedged, and the
// poisoned ones are reported.

TEST(FaultTortureTest, RandomFaultsQuarantineSomeInstancesAndBlockNone) {
  wf::DefinitionStore store;
  ASSERT_TRUE(test::DeclareDefaultProgram(&store, "prog").ok());
  wf::ProcessBuilder b(&store, "two_step");
  b.Program("A", "prog");
  b.Program("B", "prog");
  b.Connect("A", "B", "RC = 0");
  b.MapToOutput("B", {{"RC", "RC"}});
  ASSERT_TRUE(b.Register().ok());

  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(test::BindConstRc(&programs, "prog", 0).ok());
  wfrt::FaultPlan plan(7);
  wfrt::FaultProfile profile;
  profile.transient_probability = 0.2;
  profile.permanent_probability = 0.08;
  plan.SetDefaultProfile(profile);
  ASSERT_TRUE(plan.Instrument(&programs).ok());

  wfrt::EngineOptions opts;
  opts.retry.max_attempts = 4;
  wfrt::Engine engine(&store, &programs, opts);

  const int kInstances = 40;
  std::vector<std::string> ids;
  for (int i = 0; i < kInstances; ++i) {
    auto id = engine.StartProcess("two_step");
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  // One Run() navigates the whole batch: injected faults quarantine
  // individual instances but never poison the call.
  ASSERT_TRUE(engine.Run().ok());

  int finished = 0, failed = 0;
  for (const auto& id : ids) {
    if (engine.IsFinished(id)) {
      ++finished;
    } else {
      ASSERT_TRUE(engine.IsFailed(id)) << id << " neither finished nor failed";
      ++failed;
    }
  }
  EXPECT_EQ(finished + failed, kInstances);
  // The seeded profile is deterministic: both outcomes occur.
  EXPECT_GT(finished, 0);
  EXPECT_GT(failed, 0);
  EXPECT_EQ(engine.FailedInstances().size(), static_cast<size_t>(failed));
  EXPECT_EQ(engine.stats().instances_failed, static_cast<uint64_t>(failed));
  EXPECT_EQ(engine.stats().instances_finished,
            static_cast<uint64_t>(finished));
  EXPECT_GT(plan.injected(), 0u);
}

TEST(FaultTortureTest, SlowFaultsDelayViaHookWithoutChangingOutcome) {
  wf::DefinitionStore store;
  ASSERT_TRUE(test::DeclareDefaultProgram(&store, "prog").ok());
  wf::ProcessBuilder b(&store, "one_step");
  b.Program("A", "prog");
  b.MapToOutput("A", {{"RC", "RC"}});
  ASSERT_TRUE(b.Register().ok());

  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(test::BindConstRc(&programs, "prog", 0).ok());
  wfrt::FaultPlan plan;
  plan.SlowAt("A", 1, 5000);
  Micros observed = 0;
  plan.set_on_delay([&observed](Micros d) { observed += d; });
  ASSERT_TRUE(plan.Instrument(&programs).ok());

  wfrt::Engine engine(&store, &programs);
  auto id = engine.RunToCompletion("one_step");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto out = engine.OutputOf(*id);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Get("RC")->as_long(), 0);
  EXPECT_EQ(observed, 5000);
  EXPECT_EQ(plan.injected(), 1u);
}

}  // namespace
}  // namespace exotica
