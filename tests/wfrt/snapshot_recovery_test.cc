// Snapshot checkpoints: Engine::Checkpoint() rotates the journal, writes
// one kSnapshot record holding every live instance family, and truncates
// the history behind it. Recovery seeks the snapshot and replays only the
// suffix; a torn snapshot falls back to full replay of the surviving
// segments. FleetRecoveryTest drives the per-engine journal shards and
// the parallel sharded Recover() (runs under TSan in CI).

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "wf/builder.h"
#include "wfjournal/faulty.h"
#include "wfjournal/journal.h"
#include "wfrt/engine.h"
#include "wfrt/fleet.h"
#include "../testutil.h"

namespace exotica {
namespace {

using test::BindConstRc;
using test::DeclareDefaultProgram;
using wfjournal::EventType;
using wfjournal::FaultyJournal;
using wfjournal::FileJournal;
using wfjournal::MemoryJournal;

void RegisterChain(wf::DefinitionStore* store, const std::string& name,
                   int length, const std::string& prog) {
  wf::ProcessBuilder b(store, name);
  std::string prev;
  for (int i = 1; i <= length; ++i) {
    std::string act = "A" + std::to_string(i);
    b.Program(act, prog);
    if (!prev.empty()) b.Connect(prev, act);
    prev = act;
  }
  b.MapToOutput(prev, {{"RC", "RC"}});
  ASSERT_TRUE(b.Register().ok());
}

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  for (uint64_t n = 0; n < 4096; ++n) {
    std::remove((path + "." + std::to_string(n)).c_str());
  }
  return path;
}

void RemoveShards(const std::string& base, int engines) {
  for (int e = 0; e < engines; ++e) {
    std::string shard = base + ".e" + std::to_string(e);
    std::remove(shard.c_str());
    for (uint64_t n = 0; n < 4096; ++n) {
      std::remove((shard + "." + std::to_string(n)).c_str());
    }
  }
}

class SnapshotRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(DeclareDefaultProgram(&store_, "ok").ok());
    RegisterChain(&store_, "chain", 4, "ok");
    ASSERT_TRUE(BindConstRc(&programs_, "ok", 0).ok());
  }

  wf::DefinitionStore store_;
  wfrt::ProgramRegistry programs_;
};

TEST_F(SnapshotRecoveryTest, CheckpointTruncatesHistoryAndKeepsLiveWork) {
  std::string path = TempPath("exo_snap_basic.log");
  auto journal = FileJournal::Open(path);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();

  wfrt::Engine engine(&store_, &programs_);
  ASSERT_TRUE(engine.AttachJournal(journal->get()).ok());

  // History: three finished instances, then one suspended (live) one.
  std::vector<std::string> done;
  for (int i = 0; i < 3; ++i) {
    auto id = engine.RunToCompletion("chain");
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    done.push_back(*id);
  }
  auto live = engine.StartProcess("chain");
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(engine.SuspendInstance(*live).ok());
  ASSERT_TRUE(engine.Run().ok());

  const uint64_t before = (*journal)->size();
  ASSERT_TRUE(engine.Checkpoint().ok());
  EXPECT_EQ(engine.stats().snapshots_written, 1u);
  // Everything before the snapshot record is gone; the snapshot opens a
  // fresh segment whose first record it is.
  EXPECT_EQ(engine.stats().records_truncated, before);
  EXPECT_EQ((*journal)->first_seq(), before);
  EXPECT_EQ((*journal)->size(), before + 1);
  EXPECT_EQ((*journal)->segment_count(), 1u);

  // A fresh engine recovers the live instance from the snapshot alone.
  wfrt::Engine recovered(&store_, &programs_);
  ASSERT_TRUE(recovered.AttachJournal(journal->get()).ok());
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.stats().recovery_records_replayed, 1u);
  EXPECT_TRUE(recovered.IsSuspended(*live));
  // Finished instances were dropped with their history.
  for (const std::string& id : done) {
    EXPECT_TRUE(recovered.FindInstance(id).status().IsNotFound());
  }
  ASSERT_TRUE(recovered.ResumeSuspended(*live).ok());
  ASSERT_TRUE(recovered.Run().ok());
  EXPECT_TRUE(recovered.IsFinished(*live));
  auto out = recovered.OutputOf(*live);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Get("RC")->as_long(), 0);

  // The id counter survived truncation: new instances must not collide
  // with truncated ones.
  auto fresh = recovered.StartProcess("chain");
  ASSERT_TRUE(fresh.ok());
  for (const std::string& id : done) EXPECT_NE(*fresh, id);
  TempPath("exo_snap_basic.log");
}

TEST_F(SnapshotRecoveryTest, DuplicateImageInSnapshotFailsRecovery) {
  // A snapshot of an engine with nothing live replays to an empty engine.
  MemoryJournal source;
  wfrt::Engine engine(&store_, &programs_);
  ASSERT_TRUE(engine.AttachJournal(&source).ok());
  ASSERT_TRUE(engine.Checkpoint().ok());
  {
    wfrt::Engine recovered(&store_, &programs_);
    ASSERT_TRUE(recovered.AttachJournal(&source).ok());
    ASSERT_TRUE(recovered.Recover().ok());
    EXPECT_TRUE(recovered.instance_order().empty());
  }

  // One live instance, checkpointed: its snapshot lists one image.
  auto live = engine.StartProcess("chain");
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(engine.Checkpoint().ok());
  auto records = source.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_FALSE(records->empty());
  wfjournal::Record snapshot = records->back();
  ASSERT_EQ(snapshot.type, EventType::kSnapshot);

  // The same image listed twice must be refused by name, not replayed
  // into two instances sharing one id (whose programs would both run).
  snapshot.payload += snapshot.payload;
  MemoryJournal corrupt;
  ASSERT_TRUE(corrupt.Append(snapshot).ok());
  wfrt::Engine recovered(&store_, &programs_);
  ASSERT_TRUE(recovered.AttachJournal(&corrupt).ok());
  Status st = recovered.Recover();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find(*live), std::string::npos) << st.ToString();
}

TEST_F(SnapshotRecoveryTest, MemberWithParentOutsideTheListFailsRecovery) {
  wf::ProcessBuilder outer(&store_, "outer");
  outer.Block("Sub", "chain");
  outer.MapToOutput("Sub", {{"RC", "RC"}});
  ASSERT_TRUE(outer.Register().ok());

  MemoryJournal source;
  wfrt::Engine engine(&store_, &programs_);
  ASSERT_TRUE(engine.AttachJournal(&source).ok());
  auto root = engine.StartProcess("outer");
  ASSERT_TRUE(root.ok());
  bool quiescent = false;
  ASSERT_TRUE(engine.RunSlice(1, &quiescent).ok());  // spawns the child
  const std::vector<std::string> ids = engine.instance_order();
  ASSERT_EQ(ids.size(), 2u);
  ASSERT_TRUE(engine.Checkpoint().ok());
  auto records = source.ReadAll();
  ASSERT_TRUE(records.ok());
  wfjournal::Record snapshot = records->back();
  ASSERT_EQ(snapshot.type, EventType::kSnapshot);

  // Drop the root's image line: the child's parent link names no member.
  const size_t newline = snapshot.payload.find('\n');
  ASSERT_NE(newline, std::string::npos);
  snapshot.payload.erase(0, newline + 1);
  MemoryJournal corrupt;
  ASSERT_TRUE(corrupt.Append(snapshot).ok());
  wfrt::Engine recovered(&store_, &programs_);
  ASSERT_TRUE(recovered.AttachJournal(&corrupt).ok());
  Status st = recovered.Recover();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find(ids[1]), std::string::npos) << st.ToString();
  EXPECT_TRUE(recovered.instance_order().empty());
}

TEST_F(SnapshotRecoveryTest, SnapshotIntervalCheckpointsAutomatically) {
  std::string path = TempPath("exo_snap_auto.log");
  auto journal = FileJournal::Open(path);
  ASSERT_TRUE(journal.ok());

  wfrt::EngineOptions opts;
  opts.snapshot_interval = 8;  // a 4-step chain writes more than 8 records
  wfrt::Engine engine(&store_, &programs_, opts);
  ASSERT_TRUE(engine.AttachJournal(journal->get()).ok());

  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine.RunToCompletion("chain").ok());
  }
  EXPECT_GE(engine.stats().snapshots_written, 3u);
  EXPECT_GT(engine.stats().records_truncated, 0u);
  // The journal holds only the records since the last snapshot.
  EXPECT_LT((*journal)->size() - (*journal)->first_seq(), 24u);

  // Replay cost is bounded by the suffix, not the six-instance history.
  wfrt::Engine recovered(&store_, &programs_);
  ASSERT_TRUE(recovered.AttachJournal(journal->get()).ok());
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_LT(recovered.stats().recovery_records_replayed, 24u);
  ASSERT_TRUE(recovered.Run().ok());
  TempPath("exo_snap_auto.log");
}

TEST_F(SnapshotRecoveryTest, RecoveryCompletesInterruptedTruncation) {
  std::string path = TempPath("exo_snap_trunc.log");
  auto journal = FileJournal::Open(path);
  ASSERT_TRUE(journal.ok());

  // The crash window after the snapshot commits but before truncation:
  // the snapshot is durable, the old segments still exist.
  FaultyJournal faulty(journal->get(), path);
  wfrt::Engine engine(&store_, &programs_);
  ASSERT_TRUE(engine.AttachJournal(&faulty).ok());
  ASSERT_TRUE(engine.RunToCompletion("chain").ok());
  auto live = engine.StartProcess("chain");
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(engine.SuspendInstance(*live).ok());
  ASSERT_TRUE(engine.Run().ok());

  faulty.FailTruncateAt(0);
  Status st = engine.Checkpoint();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_GT((*journal)->segment_count(), 1u);
  EXPECT_EQ((*journal)->first_seq(), 0u);

  // Recovery lands on the snapshot, ignores the stale prefix, and
  // finishes the truncation the crash interrupted.
  wfrt::Engine recovered(&store_, &programs_);
  ASSERT_TRUE(recovered.AttachJournal(journal->get()).ok());
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_TRUE(recovered.IsSuspended(*live));
  EXPECT_EQ((*journal)->segment_count(), 1u);
  EXPECT_GT((*journal)->first_seq(), 0u);
  ASSERT_TRUE(recovered.ResumeSuspended(*live).ok());
  ASSERT_TRUE(recovered.Run().ok());
  EXPECT_TRUE(recovered.IsFinished(*live));
  TempPath("exo_snap_trunc.log");
}

TEST_F(SnapshotRecoveryTest, TornSnapshotFallsBackToFullReplay) {
  std::string path = TempPath("exo_snap_torn.log");
  std::string live;
  uint64_t history_records = 0;
  {
    auto journal = FileJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    FaultyJournal faulty(journal->get(), path);
    wfrt::Engine engine(&store_, &programs_);
    ASSERT_TRUE(engine.AttachJournal(&faulty).ok());
    ASSERT_TRUE(engine.RunToCompletion("chain").ok());
    auto id = engine.StartProcess("chain");
    ASSERT_TRUE(id.ok());
    live = *id;
    ASSERT_TRUE(engine.SuspendInstance(live).ok());
    ASSERT_TRUE(engine.Run().ok());
    history_records = (*journal)->size();

    // Crash mid-snapshot-append: the truncate never runs, and we tear
    // the snapshot record below.
    faulty.FailTruncateAt(0);
    EXPECT_TRUE(engine.Checkpoint().IsIOError());
  }
  // Tear the snapshot: cut the active segment (whose sole record is the
  // snapshot) in half.
  std::string snap_segment = path + "." + std::to_string(history_records);
  {
    std::ifstream in(snap_segment, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(in.is_open());
    auto half = static_cast<off_t>(in.tellg()) / 2;
    ASSERT_GT(half, 0);
    ASSERT_EQ(::truncate(snap_segment.c_str(), half), 0);
  }

  // Open truncates the torn snapshot away; recovery replays the full
  // surviving history as if no checkpoint had been attempted.
  auto journal = FileJournal::Open(path);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ((*journal)->size(), history_records);
  wfrt::Engine recovered(&store_, &programs_);
  ASSERT_TRUE(recovered.AttachJournal(journal->get()).ok());
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.stats().recovery_records_replayed, history_records);
  EXPECT_TRUE(recovered.IsSuspended(live));
  ASSERT_TRUE(recovered.ResumeSuspended(live).ok());
  ASSERT_TRUE(recovered.Run().ok());
  EXPECT_TRUE(recovered.IsFinished(live));
  TempPath("exo_snap_torn.log");
}

TEST_F(SnapshotRecoveryTest, AdoptReplayDropsRetainedDetachImage) {
  MemoryJournal journal;
  std::string root;
  {
    wfrt::Engine engine(&store_, &programs_);
    ASSERT_TRUE(engine.AttachJournal(&journal).ok());
    auto id = engine.StartProcess("chain");
    ASSERT_TRUE(id.ok());
    root = *id;
    bool quiescent = false;
    ASSERT_TRUE(engine.RunSlice(1, &quiescent).ok());
    auto detached = engine.Detach(root);
    ASSERT_TRUE(detached.ok()) << detached.status().ToString();
    // Adopt back into the same engine: the journal now holds a
    // DETACH/ADOPT pair.
    ASSERT_TRUE(engine.Adopt(*detached).ok());
    ASSERT_TRUE(engine.Run().ok());
    EXPECT_TRUE(engine.IsFinished(root));
  }

  // Replaying the adopt erases the image the detach retained — the
  // husk map cannot grow without bound across detach/adopt cycles.
  wfrt::Engine recovered(&store_, &programs_);
  ASSERT_TRUE(recovered.AttachJournal(&journal).ok());
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_TRUE(recovered.RetainedDetachedRoots().empty());
  ASSERT_TRUE(recovered.Run().ok());
  EXPECT_TRUE(recovered.IsFinished(root));
}

TEST_F(SnapshotRecoveryTest, CheckpointDropsRetainedDetachImages) {
  MemoryJournal journal;
  std::string root;
  {
    wfrt::Engine engine(&store_, &programs_);
    ASSERT_TRUE(engine.AttachJournal(&journal).ok());
    auto id = engine.StartProcess("chain");
    ASSERT_TRUE(id.ok());
    root = *id;
    bool quiescent = false;
    ASSERT_TRUE(engine.RunSlice(1, &quiescent).ok());
    // Detach with no adopt anywhere: a dangling handoff.
    ASSERT_TRUE(engine.Detach(root).ok());
    ASSERT_TRUE(engine.Run().ok());
  }

  wfrt::Engine recovered(&store_, &programs_);
  ASSERT_TRUE(recovered.AttachJournal(&journal).ok());
  ASSERT_TRUE(recovered.Recover().ok());
  ASSERT_EQ(recovered.RetainedDetachedRoots().size(), 1u);
  EXPECT_EQ(recovered.RetainedDetachedRoots()[0], root);
  // A checkpoint bounds the husk map: images not claimed by a fleet
  // recovery pass are dropped with the history they came from.
  ASSERT_TRUE(recovered.Checkpoint().ok());
  EXPECT_TRUE(recovered.RetainedDetachedRoots().empty());
}

// --- fleet shards (suite name matches the TSan CI filter *Fleet*) -----------

class FleetRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(DeclareDefaultProgram(&store_, "ok").ok());
    RegisterChain(&store_, "chain", 4, "ok");
    ASSERT_TRUE(BindConstRc(&programs_, "ok", 0).ok());
  }

  wf::DefinitionStore store_;
  wfrt::ProgramRegistry programs_;
};

TEST_F(FleetRecoveryTest, ShardedJournalsRecoverInParallel) {
  const int kEngines = 4;
  std::string base = ::testing::TempDir() + "/exo_fleet_shards.log";
  RemoveShards(base, kEngines);

  std::vector<std::string> suspended;
  {
    wfrt::EngineFleet fleet(&store_, &programs_, kEngines);
    ASSERT_TRUE(fleet.OpenJournalShards(base).ok());
    auto result = fleet.RunBatch("chain", 8);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->ok());
    // Park one live instance on every engine, then let each engine
    // flush (Run() on a quiet engine is a journal flush point).
    for (int e = 0; e < kEngines; ++e) {
      auto id = fleet.engine(e)->StartProcess("chain");
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(fleet.engine(e)->SuspendInstance(*id).ok());
      ASSERT_TRUE(fleet.engine(e)->Run().ok());
      suspended.push_back(*id);
    }
  }  // fleet destroyed = crash; shard files survive

  wfrt::EngineFleet fleet(&store_, &programs_, kEngines);
  ASSERT_TRUE(fleet.OpenJournalShards(base).ok());
  auto report = fleet.Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->records_replayed, 0u);
  EXPECT_EQ(report->handoffs_readopted, 0u);

  // Every engine got its own suspended instance back from its own shard.
  for (int e = 0; e < kEngines; ++e) {
    EXPECT_TRUE(fleet.engine(e)->IsSuspended(suspended[static_cast<size_t>(e)]))
        << "engine " << e;
    ASSERT_TRUE(
        fleet.engine(e)->ResumeSuspended(suspended[static_cast<size_t>(e)])
            .ok());
  }
  auto drive = fleet.RunBatch(std::vector<wfrt::EngineFleet::BatchSeed>{});
  ASSERT_TRUE(drive.ok()) << drive.status().ToString();
  for (int e = 0; e < kEngines; ++e) {
    EXPECT_TRUE(fleet.engine(e)->IsFinished(suspended[static_cast<size_t>(e)]));
  }
  RemoveShards(base, kEngines);
}

TEST_F(FleetRecoveryTest, CorruptShardFailsOpenAndIsNamed) {
  const int kEngines = 3;
  std::string base = ::testing::TempDir() + "/exo_fleet_corrupt.log";
  RemoveShards(base, kEngines);
  {
    wfrt::EngineFleet fleet(&store_, &programs_, kEngines);
    ASSERT_TRUE(fleet.OpenJournalShards(base).ok());
    auto result = fleet.RunBatch("chain", 6);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  // Garbage ahead of well-formed records is corruption, not a torn tail.
  // Shards 1 and 2 both get it; shard order decides which one is named.
  for (int e : {1, 2}) {
    std::string path = base + ".e" + std::to_string(e);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_FALSE(bytes.empty());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a journal record\n" << bytes;
  }

  wfrt::EngineFleet fleet(&store_, &programs_, kEngines);
  Status opened = fleet.OpenJournalShards(base);
  EXPECT_TRUE(opened.IsCorruption()) << opened.ToString();
  EXPECT_NE(opened.message().find(base + ".e1"), std::string::npos)
      << opened.ToString();
  EXPECT_EQ(opened.message().find(base + ".e2"), std::string::npos)
      << opened.ToString();
  EXPECT_EQ(fleet.journal_shard(0), nullptr);  // nothing attached
  RemoveShards(base, kEngines);
}

TEST_F(FleetRecoveryTest, DanglingHandoffIsReadopted) {
  const int kEngines = 2;
  MemoryJournal shard0, shard1;
  std::string root;
  {
    wfrt::EngineFleet fleet(&store_, &programs_, kEngines);
    ASSERT_TRUE(fleet.AttachJournals({&shard0, &shard1}).ok());
    auto id = fleet.engine(0)->StartProcess("chain");
    ASSERT_TRUE(id.ok());
    root = *id;
    bool quiescent = false;
    ASSERT_TRUE(fleet.engine(0)->RunSlice(1, &quiescent).ok());
    // The crash hits between Detach (journaled on shard 0) and the
    // thief's Adopt (never journaled anywhere).
    ASSERT_TRUE(fleet.engine(0)->Detach(root).ok());
  }

  wfrt::EngineFleet fleet(&store_, &programs_, kEngines);
  ASSERT_TRUE(fleet.AttachJournals({&shard0, &shard1}).ok());
  auto report = fleet.Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->handoffs_readopted, 1u);
  EXPECT_EQ(report->handoff_images_dropped, 0u);

  // The family lives on exactly one engine and runs to completion.
  int hosts = 0;
  for (int e = 0; e < kEngines; ++e) {
    if (fleet.engine(e)->FindInstance(root).ok()) ++hosts;
  }
  EXPECT_EQ(hosts, 1);
  auto drive = fleet.RunBatch(std::vector<wfrt::EngineFleet::BatchSeed>{});
  ASSERT_TRUE(drive.ok()) << drive.status().ToString();
  bool finished = false;
  for (int e = 0; e < kEngines; ++e) {
    finished = finished || fleet.engine(e)->IsFinished(root);
  }
  EXPECT_TRUE(finished);
}

TEST_F(FleetRecoveryTest, CompletedHandoffDropsTheStaleImage) {
  const int kEngines = 2;
  MemoryJournal shard0, shard1;
  std::string root;
  {
    wfrt::EngineFleet fleet(&store_, &programs_, kEngines);
    ASSERT_TRUE(fleet.AttachJournals({&shard0, &shard1}).ok());
    auto id = fleet.engine(0)->StartProcess("chain");
    ASSERT_TRUE(id.ok());
    root = *id;
    bool quiescent = false;
    ASSERT_TRUE(fleet.engine(0)->RunSlice(1, &quiescent).ok());
    auto detached = fleet.engine(0)->Detach(root);
    ASSERT_TRUE(detached.ok());
    // The handoff completed: shard 1 has the ADOPT.
    ASSERT_TRUE(fleet.engine(1)->Adopt(*detached).ok());
  }

  wfrt::EngineFleet fleet(&store_, &programs_, kEngines);
  ASSERT_TRUE(fleet.AttachJournals({&shard0, &shard1}).ok());
  auto report = fleet.Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->handoffs_readopted, 0u);
  EXPECT_EQ(report->handoff_images_dropped, 1u);

  // Shard 1 hosts the family; shard 0's stale image did not duplicate it.
  EXPECT_TRUE(fleet.engine(0)->FindInstance(root).status().IsNotFound());
  ASSERT_TRUE(fleet.engine(1)->FindInstance(root).ok());
  auto drive = fleet.RunBatch(std::vector<wfrt::EngineFleet::BatchSeed>{});
  ASSERT_TRUE(drive.ok()) << drive.status().ToString();
  EXPECT_TRUE(fleet.engine(1)->IsFinished(root));
}

TEST_F(FleetRecoveryTest, AttachJournalsRejectsWrongShardCount) {
  MemoryJournal shard0;
  wfrt::EngineFleet fleet(&store_, &programs_, 2);
  EXPECT_TRUE(fleet.AttachJournals({&shard0}).IsInvalidArgument());
}

}  // namespace
}  // namespace exotica
