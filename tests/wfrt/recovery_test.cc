// Forward recovery (paper §3.3): "In case of failures, the process
// execution will stop. Once the failures have been repaired, the process
// execution is resumed from the point where the failure occurred."
//
// The exhaustive test crashes the engine after EVERY journal prefix and
// verifies the resumed execution reaches the same final state — with
// in-flight activities re-run from the beginning (at-least-once).

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "wf/builder.h"
#include "wfjournal/journal.h"
#include "wfrt/engine.h"
#include "../testutil.h"

namespace exotica {
namespace {

using test::BindConstRc;
using test::BindScriptedRc;
using test::DeclareDefaultProgram;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(DeclareDefaultProgram(&store_, "ok").ok());
    ASSERT_TRUE(DeclareDefaultProgram(&store_, "fail").ok());
    ASSERT_TRUE(DeclareDefaultProgram(&store_, "flaky").ok());
    ASSERT_TRUE(BindConstRc(&programs_, "ok", 0).ok());
    ASSERT_TRUE(BindConstRc(&programs_, "fail", 1).ok());

    // Reference process: data flow, a dead branch, a block, and a loop.
    wf::ProcessBuilder inner(&store_, "inner");
    inner.Program("X", "ok");
    inner.MapToOutput("X", {{"RC", "RC"}});
    ASSERT_TRUE(inner.Register().ok());

    wf::ProcessBuilder b(&store_, "ref");
    b.Program("A", "ok");
    b.Program("Dead", "ok");
    b.Program("Loop", "flaky").ExitWhen("RC = 0");
    b.Block("Blk", "inner");
    b.Program("Z", "ok");
    b.Connect("A", "Dead", "RC <> 0");   // never taken
    b.Connect("A", "Loop", "RC = 0");
    b.Connect("Loop", "Blk", "RC = 0");
    b.Connect("Blk", "Z", "RC = 0");
    b.MapToOutput("Z", {{"RC", "RC"}});
    ASSERT_TRUE(b.Register().ok());
  }

  // `flaky` needs rebinding per engine since attempts restart at 1 on
  // recovery re-execution; a pure attempt-scripted program stays
  // deterministic because the journal restores the attempt counter.
  void BindFlaky(wfrt::ProgramRegistry* programs) {
    if (!programs->IsBound("flaky")) {
      ASSERT_TRUE(BindScriptedRc(programs, "flaky", {1, 0}).ok());
    }
  }

  wf::DefinitionStore store_;
  wfrt::ProgramRegistry programs_;
};

TEST_F(RecoveryTest, CrashAtEveryJournalPrefixResumesToSameOutcome) {
  BindFlaky(&programs_);

  // Reference run.
  wfjournal::MemoryJournal reference;
  wfrt::Engine ref_engine(&store_, &programs_);
  ASSERT_TRUE(ref_engine.AttachJournal(&reference).ok());
  auto ref_id = ref_engine.RunToCompletion("ref");
  ASSERT_TRUE(ref_id.ok()) << ref_id.status().ToString();
  ASSERT_TRUE(ref_engine.IsFinished(*ref_id));
  const uint64_t total = reference.size();
  ASSERT_GT(total, 10u);
  auto ref_records = reference.ReadAll();
  ASSERT_TRUE(ref_records.ok());

  for (uint64_t cut = 1; cut <= total; ++cut) {
    SCOPED_TRACE("crash after record " + std::to_string(cut));
    // Rebuild a journal holding only the first `cut` records.
    wfjournal::MemoryJournal journal;
    for (uint64_t i = 0; i < cut; ++i) {
      ASSERT_TRUE(journal.Append((*ref_records)[i]).ok());
    }
    wfrt::ProgramRegistry programs;
    ASSERT_TRUE(BindConstRc(&programs, "ok", 0).ok());
    ASSERT_TRUE(BindConstRc(&programs, "fail", 1).ok());
    ASSERT_TRUE(BindScriptedRc(&programs, "flaky", {1, 0}).ok());

    wfrt::Engine engine(&store_, &programs);
    ASSERT_TRUE(engine.AttachJournal(&journal).ok());
    Status rec = engine.Recover();
    ASSERT_TRUE(rec.ok()) << rec.ToString();
    Status run = engine.Run();
    ASSERT_TRUE(run.ok()) << run.ToString();

    ASSERT_TRUE(engine.IsFinished(*ref_id));
    auto out = engine.OutputOf(*ref_id);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->Get("RC")->as_long(), 0);
    EXPECT_EQ(*engine.StateOf(*ref_id, "Dead"), wf::ActivityState::kDead);
    EXPECT_EQ(*engine.StateOf(*ref_id, "Z"), wf::ActivityState::kTerminated);
  }
}

TEST_F(RecoveryTest, FileJournalSurvivesEngineRestart) {
  BindFlaky(&programs_);
  std::string path = ::testing::TempDir() + "/exo_recovery_journal.log";
  std::remove(path.c_str());

  std::string id;
  {
    auto journal = wfjournal::FileJournal::Open(path);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    wfrt::Engine engine(&store_, &programs_);
    ASSERT_TRUE(engine.AttachJournal(journal->get()).ok());
    auto r = engine.RunToCompletion("ref");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    id = *r;
  }
  // "Restart": new journal handle, new engine, same file.
  {
    auto journal = wfjournal::FileJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    wfrt::ProgramRegistry programs;
    ASSERT_TRUE(BindConstRc(&programs, "ok", 0).ok());
    ASSERT_TRUE(BindConstRc(&programs, "fail", 1).ok());
    ASSERT_TRUE(BindScriptedRc(&programs, "flaky", {1, 0}).ok());
    wfrt::Engine engine(&store_, &programs);
    ASSERT_TRUE(engine.AttachJournal(journal->get()).ok());
    ASSERT_TRUE(engine.Recover().ok());
    ASSERT_TRUE(engine.Run().ok());
    EXPECT_TRUE(engine.IsFinished(id));
    EXPECT_EQ(engine.OutputOf(id)->Get("RC")->as_long(), 0);
  }
  std::remove(path.c_str());
}

TEST_F(RecoveryTest, ManualWorkItemRepostedAfterRecovery) {
  org::Directory dir;
  ASSERT_TRUE(dir.AddRole("clerk").ok());
  ASSERT_TRUE(dir.AddPerson("ann", 1, {"clerk"}).ok());

  wf::ProcessBuilder b(&store_, "manual");
  b.Program("Approve", "ok").Manual().Role("clerk");
  b.MapToOutput("Approve", {{"RC", "RC"}});
  ASSERT_TRUE(b.Register().ok());

  wfjournal::MemoryJournal journal;
  std::string id;
  {
    wfrt::Engine engine(&store_, &programs_);
    ASSERT_TRUE(engine.AttachJournal(&journal).ok());
    ASSERT_TRUE(engine.AttachOrganization(&dir).ok());
    auto r = engine.StartProcess("manual");
    ASSERT_TRUE(r.ok());
    id = *r;
    ASSERT_TRUE(engine.Run().ok());
    ASSERT_EQ(engine.worklists()->WorklistOf("ann").size(), 1u);
    // Crash here: the engine object goes away; the work item with it.
  }
  {
    wfrt::ProgramRegistry programs;
    ASSERT_TRUE(BindConstRc(&programs, "ok", 0).ok());
    wfrt::Engine engine(&store_, &programs);
    ASSERT_TRUE(engine.AttachJournal(&journal).ok());
    ASSERT_TRUE(engine.AttachOrganization(&dir).ok());
    ASSERT_TRUE(engine.Recover().ok());
    auto items = engine.worklists()->WorklistOf("ann");
    ASSERT_EQ(items.size(), 1u);  // reposted
    ASSERT_TRUE(engine.Claim(items[0]->id, "ann").ok());
    ASSERT_TRUE(engine.ExecuteWorkItem(items[0]->id, "ann").ok());
    EXPECT_TRUE(engine.IsFinished(id));
  }
}

TEST_F(RecoveryTest, RecoverRequiresJournalAndFreshEngine) {
  wfrt::Engine engine(&store_, &programs_);
  EXPECT_TRUE(engine.Recover().IsFailedPrecondition());

  wfjournal::MemoryJournal journal;
  wfrt::Engine with_journal(&store_, &programs_);
  ASSERT_TRUE(with_journal.AttachJournal(&journal).ok());
  ASSERT_TRUE(with_journal.StartProcess("ref").ok());
  EXPECT_TRUE(with_journal.Recover().IsFailedPrecondition());
}

// Replay accepts only what a writer produces. A number with trailing
// text is not read as its leading digits, and a record whose type digit
// took a one-bit flip (READY's 1, 0x31, to 0x39) is not replayed as a
// type no writer emits.
TEST_F(RecoveryTest, ReplayRejectsNumbersAndTypesNoWriterProduces) {
  using wfjournal::EventType;
  using wfjournal::Record;
  BindFlaky(&programs_);
  wfjournal::MemoryJournal source;
  wfrt::Engine engine(&store_, &programs_);
  ASSERT_TRUE(engine.AttachJournal(&source).ok());
  ASSERT_TRUE(engine.RunToCompletion("ref").ok());
  auto history = source.ReadAll();
  ASSERT_TRUE(history.ok());
  ASSERT_TRUE(engine.StartProcess("ref").ok());  // live, so snapshotted
  ASSERT_TRUE(engine.Checkpoint().ok());
  auto tail = source.ReadAll();
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->back().type, EventType::kSnapshot);
  ASSERT_FALSE(tail->back().extra.empty());

  // `records` with the first record of `type` passed through `edit`.
  auto edited = [](std::vector<Record> records, EventType type,
                   const std::function<void(Record*)>& edit) {
    for (Record& r : records) {
      if (r.type != type) continue;
      edit(&r);
      break;
    }
    return records;
  };
  const std::vector<std::pair<std::string, std::vector<Record>>> cases = {
      {"attempt x9", edited(*history, EventType::kActivityStarted,
                            [](Record* r) { r->payload = "x9"; })},
      {"version v1x", edited(*history, EventType::kInstanceStart,
                             [](Record* r) { r->payload = "v1x:ref"; })},
      {"snapshot counter 12a", edited(*tail, EventType::kSnapshot,
                                      [](Record* r) { r->extra = "12a"; })},
      {"READY type digit 1 -> 9",
       edited(*history, EventType::kActivityReady, [](Record* r) {
         std::string line = r->Encode();
         const size_t type = line.find('\t') + 1;
         ASSERT_EQ(line.substr(type, 2), "1\t");
         line[type] = '9';
         auto flipped = Record::Decode(line);
         ASSERT_TRUE(flipped.ok()) << flipped.status().ToString();
         *r = *flipped;
       })},
  };
  for (const auto& [name, records] : cases) {
    SCOPED_TRACE(name);
    wfjournal::MemoryJournal journal;
    for (const Record& r : records) ASSERT_TRUE(journal.Append(r).ok());
    wfrt::Engine recovered(&store_, &programs_);
    ASSERT_TRUE(recovered.AttachJournal(&journal).ok());
    Status st = recovered.Recover();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
}

}  // namespace
}  // namespace exotica
