// Blocks (process activities, paper §3.2): nesting, data flow across the
// block boundary, and loops built from exit conditions on blocks.

#include <memory>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "wf/builder.h"
#include "wfjournal/journal.h"
#include "wfrt/engine.h"
#include "../testutil.h"

namespace exotica {
namespace {

using test::BindConstRc;
using test::BindEchoRc;
using test::BindScriptedRc;
using test::DeclareDefaultProgram;
using test::DefaultInput;

class BlockTest : public ::testing::Test {
 protected:
  wf::DefinitionStore store_;
  wfrt::ProgramRegistry programs_;
};

TEST_F(BlockTest, ChildRunsAndReturnsOutput) {
  ASSERT_TRUE(DeclareDefaultProgram(&store_, "echo").ok());
  ASSERT_TRUE(BindEchoRc(&programs_, "echo").ok());

  wf::ProcessBuilder inner(&store_, "inner");
  inner.Program("X", "echo");
  inner.MapFromInput("X", {{"RC", "RC"}});
  inner.MapToOutput("X", {{"RC", "RC"}});
  ASSERT_TRUE(inner.Register().ok());

  wf::ProcessBuilder outer(&store_, "outer");
  outer.Program("Pre", "echo");
  outer.Block("B", "inner");
  outer.Connect("Pre", "B");
  outer.MapFromInput("Pre", {{"RC", "RC"}});
  outer.MapData("Pre", "B", {{"RC", "RC"}});
  outer.MapToOutput("B", {{"RC", "RC"}});
  ASSERT_TRUE(outer.Register().ok());

  wfrt::Engine engine(&store_, &programs_);
  data::Container in = DefaultInput(store_, 9);
  auto id = engine.RunToCompletion("outer", &in);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(engine.OutputOf(*id)->Get("RC")->as_long(), 9);
  // Parent + child instance.
  EXPECT_EQ(engine.stats().instances_started, 2u);
  EXPECT_EQ(engine.stats().instances_finished, 2u);
}

TEST_F(BlockTest, ThreeLevelNesting) {
  ASSERT_TRUE(DeclareDefaultProgram(&store_, "echo").ok());
  ASSERT_TRUE(BindEchoRc(&programs_, "echo").ok());

  wf::ProcessBuilder l3(&store_, "level3");
  l3.Program("X", "echo");
  l3.MapFromInput("X", {{"RC", "RC"}});
  l3.MapToOutput("X", {{"RC", "RC"}});
  ASSERT_TRUE(l3.Register().ok());

  wf::ProcessBuilder l2(&store_, "level2");
  l2.Block("B", "level3");
  l2.MapFromInput("B", {{"RC", "RC"}});
  l2.MapToOutput("B", {{"RC", "RC"}});
  ASSERT_TRUE(l2.Register().ok());

  wf::ProcessBuilder l1(&store_, "level1");
  l1.Block("B", "level2");
  l1.MapFromInput("B", {{"RC", "RC"}});
  l1.MapToOutput("B", {{"RC", "RC"}});
  ASSERT_TRUE(l1.Register().ok());

  wfrt::Engine engine(&store_, &programs_);
  data::Container in = DefaultInput(store_, 5);
  auto id = engine.RunToCompletion("level1", &in);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(engine.OutputOf(*id)->Get("RC")->as_long(), 5);
  EXPECT_EQ(engine.stats().instances_finished, 3u);
}

TEST_F(BlockTest, ExitConditionLoopsBlock) {
  // The paper: "Exit conditions can be used to implement loops, by
  // embedding subprocesses within another process." The child reports
  // RC=1 twice then RC=0; the block re-runs until the exit holds. Each
  // block re-run spawns a fresh child instance (fresh attempt counters),
  // so the flakiness must live outside the instance.
  ASSERT_TRUE(DeclareDefaultProgram(&store_, "flaky").ok());
  auto calls = std::make_shared<int>(0);
  ASSERT_TRUE(programs_
                  .Bind("flaky",
                        [calls](const data::Container&, data::Container* out,
                                const wfrt::ProgramContext&) -> Status {
                          int64_t rc = ++*calls < 3 ? 1 : 0;
                          return out->Set("RC", data::Value(rc));
                        })
                  .ok());

  wf::ProcessBuilder inner(&store_, "body");
  inner.Program("X", "flaky");
  inner.MapToOutput("X", {{"RC", "RC"}});
  ASSERT_TRUE(inner.Register().ok());

  wf::ProcessBuilder outer(&store_, "looped");
  outer.Block("B", "body").ExitWhen("RC = 0");
  outer.MapToOutput("B", {{"RC", "RC"}});
  ASSERT_TRUE(outer.Register().ok());

  wfrt::Engine engine(&store_, &programs_);
  auto id = engine.RunToCompletion("looped");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(engine.OutputOf(*id)->Get("RC")->as_long(), 0);
  // One parent + three child instances (two rescheduled runs).
  EXPECT_EQ(engine.stats().instances_started, 4u);
  EXPECT_EQ(engine.stats().reschedules, 2u);
}

// A crash between a looped block's STARTED record and its new child's
// INSTANCE_START recovers the same way at every iteration: the block
// re-runs (RESCHEDULED ... recovery). Replay must not keep the previous
// iteration's child link, or recovery finishes the block with that
// finished child's output although no body ran for this attempt.
TEST_F(BlockTest, RecoveryAfterALoopedBlocksStartReRunsTheBlock) {
  // RC 0 only in the third child instance: the programs' outputs are a
  // function of the instance id, so recovered runs see the same outputs
  // as the uncut run.
  ASSERT_TRUE(DeclareDefaultProgram(&store_, "third").ok());
  ASSERT_TRUE(programs_
                  .Bind("third",
                        [](const data::Container&, data::Container* out,
                           const wfrt::ProgramContext& ctx) -> Status {
                          int64_t rc = ctx.instance_id == "wf-4" ? 0 : 1;
                          return out->Set("RC", data::Value(rc));
                        })
                  .ok());
  wf::ProcessBuilder inner(&store_, "body");
  inner.Program("X", "third");
  inner.MapToOutput("X", {{"RC", "RC"}});
  ASSERT_TRUE(inner.Register().ok());
  wf::ProcessBuilder outer(&store_, "looped");
  outer.Block("B", "body").ExitWhen("RC = 0");
  outer.MapToOutput("B", {{"RC", "RC"}});
  ASSERT_TRUE(outer.Register().ok());

  wfjournal::MemoryJournal reference;
  wfrt::Engine uncut(&store_, &programs_);
  ASSERT_TRUE(uncut.AttachJournal(&reference).ok());
  auto id = uncut.RunToCompletion("looped");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto records = reference.ReadAll();
  ASSERT_TRUE(records.ok());

  int cuts = 0;
  for (size_t cut = 0; cut < records->size(); ++cut) {
    const wfjournal::Record& started = (*records)[cut];
    if (started.type != wfjournal::EventType::kActivityStarted ||
        started.instance != *id || started.activity != "B") {
      continue;
    }
    ++cuts;
    SCOPED_TRACE("journal cut after STARTED " + *id + " B " +
                 started.payload);
    wfjournal::MemoryJournal journal;
    for (size_t i = 0; i <= cut; ++i) {
      ASSERT_TRUE(journal.Append((*records)[i]).ok());
    }
    wfrt::Engine engine(&store_, &programs_);
    ASSERT_TRUE(engine.AttachJournal(&journal).ok());
    ASSERT_TRUE(engine.Recover().ok());
    ASSERT_TRUE(engine.Run().ok());

    auto after = journal.ReadAll();
    ASSERT_TRUE(after.ok());
    const wfjournal::Record* first = nullptr;
    for (size_t i = cut + 1; i < after->size() && first == nullptr; ++i) {
      const wfjournal::Record& r = (*after)[i];
      if (r.instance == *id && r.activity == "B") first = &r;
    }
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->type, wfjournal::EventType::kActivityRescheduled);
    EXPECT_EQ(first->payload, "recovery");
    ASSERT_TRUE(engine.IsFinished(*id));
    EXPECT_EQ(engine.OutputOf(*id)->Get("RC")->as_long(),
              uncut.OutputOf(*id)->Get("RC")->as_long());
  }
  EXPECT_EQ(cuts, 3);  // one STARTED per iteration
}

// Each iteration of a looped block spawns a fresh child, and the block's
// child link moves to the newest one, while the earlier children still
// name the parent. Detaching the family mid-loop carries the root and the
// current child only; the finished first child stays behind on the
// victim. A checkpoint must drop it with the family's husks, or every
// later snapshot carries a child whose parent resolves nowhere.
TEST_F(BlockTest, CheckpointDropsADetachedLoopsEarlierChild) {
  ASSERT_TRUE(DeclareDefaultProgram(&store_, "flaky").ok());
  auto calls = std::make_shared<int>(0);
  ASSERT_TRUE(programs_
                  .Bind("flaky",
                        [calls](const data::Container&, data::Container* out,
                                const wfrt::ProgramContext&) -> Status {
                          int64_t rc = ++*calls < 2 ? 1 : 0;
                          return out->Set("RC", data::Value(rc));
                        })
                  .ok());
  wf::ProcessBuilder inner(&store_, "body");
  inner.Program("X", "flaky");
  inner.MapToOutput("X", {{"RC", "RC"}});
  ASSERT_TRUE(inner.Register().ok());
  wf::ProcessBuilder outer(&store_, "looped");
  outer.Block("B", "body").ExitWhen("RC = 0");
  outer.MapToOutput("B", {{"RC", "RC"}});
  ASSERT_TRUE(outer.Register().ok());

  wfrt::EngineOptions options;
  options.instance_id_prefix = "a:";
  wfjournal::MemoryJournal journal;
  wfrt::Engine victim(&store_, &programs_, options);
  ASSERT_TRUE(victim.AttachJournal(&journal).ok());
  auto root = victim.StartProcess("looped");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  bool quiescent = false;
  // Spawn a:wf-2, run it (RC 1: the exit condition fails), spawn a:wf-3.
  ASSERT_TRUE(victim.RunSlice(3, &quiescent).ok());
  auto detached = victim.Detach(*root);
  ASSERT_TRUE(detached.ok()) << detached.status().ToString();
  ASSERT_EQ(detached->images.size(), 2u);  // the root and a:wf-3
  ASSERT_TRUE(victim.IsFinished("a:wf-2"));

  ASSERT_TRUE(victim.Checkpoint().ok());
  const wfrt::AuditEvent& checkpoint = victim.audit().events().back();
  ASSERT_EQ(checkpoint.kind, wfrt::AuditKind::kCheckpoint);
  EXPECT_TRUE(StartsWith(checkpoint.detail, "0 live,")) << checkpoint.detail;

  wfrt::Engine recovered(&store_, &programs_, options);
  ASSERT_TRUE(recovered.AttachJournal(&journal).ok());
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_TRUE(recovered.instance_order().empty());
}

TEST_F(BlockTest, DeadBlockNeverSpawnsChild) {
  ASSERT_TRUE(DeclareDefaultProgram(&store_, "fail").ok());
  ASSERT_TRUE(DeclareDefaultProgram(&store_, "echo").ok());
  ASSERT_TRUE(BindConstRc(&programs_, "fail", 1).ok());
  ASSERT_TRUE(BindEchoRc(&programs_, "echo").ok());

  wf::ProcessBuilder inner(&store_, "inner2");
  inner.Program("X", "echo");
  ASSERT_TRUE(inner.Register().ok());

  wf::ProcessBuilder outer(&store_, "outer2");
  outer.Program("A", "fail");
  outer.Block("B", "inner2");
  outer.Connect("A", "B", "RC = 0");
  ASSERT_TRUE(outer.Register().ok());

  wfrt::Engine engine(&store_, &programs_);
  auto id = engine.RunToCompletion("outer2");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*engine.StateOf(*id, "B"), wf::ActivityState::kDead);
  EXPECT_EQ(engine.stats().instances_started, 1u);  // parent only
}

TEST_F(BlockTest, SideBySideBlocksShareDefinition) {
  ASSERT_TRUE(DeclareDefaultProgram(&store_, "echo").ok());
  ASSERT_TRUE(BindEchoRc(&programs_, "echo").ok());

  wf::ProcessBuilder inner(&store_, "shared");
  inner.Program("X", "echo");
  inner.MapFromInput("X", {{"RC", "RC"}});
  inner.MapToOutput("X", {{"RC", "RC"}});
  ASSERT_TRUE(inner.Register().ok());

  wf::ProcessBuilder outer(&store_, "pair");
  outer.Block("B1", "shared");
  outer.Block("B2", "shared");
  outer.Connect("B1", "B2");
  outer.MapFromInput("B1", {{"RC", "RC"}});
  outer.MapData("B1", "B2", {{"RC", "RC"}});
  outer.MapToOutput("B2", {{"RC", "RC"}});
  ASSERT_TRUE(outer.Register().ok());

  wfrt::Engine engine(&store_, &programs_);
  data::Container in = DefaultInput(store_, 3);
  auto id = engine.RunToCompletion("pair", &in);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(engine.OutputOf(*id)->Get("RC")->as_long(), 3);
  EXPECT_EQ(engine.stats().instances_finished, 3u);
}

}  // namespace
}  // namespace exotica
