// Work stealing: Detach/Adopt instance migration between engines.
//
// The single-threaded suites (StealTest, StealTortureTest) force steals
// at chosen points by calling Detach/Adopt directly — no threads, fully
// deterministic, including a golden invariance check (total navigation
// work is independent of where the steal lands) and crash-recovery cases
// on both sides of the handoff. FleetStealTest drives the real
// multi-threaded scheduler with skewed sleep profiles and runs under
// TSan in CI.

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "atm/saga.h"
#include "common/rng.h"
#include "common/strings.h"
#include "exotica/programs.h"
#include "exotica/saga_translate.h"
#include "wf/builder.h"
#include "wfjournal/journal.h"
#include "wfrt/engine.h"
#include "wfrt/fleet.h"
#include "wfsim/sim.h"
#include "../testutil.h"

namespace exotica {
namespace {

using test::BindConstRc;
using test::DeclareDefaultProgram;
using wfjournal::MemoryJournal;

// Registers a linear chain process `name` with `length` activities of
// program `prog`, last activity mapped to the process output.
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

wfrt::EngineOptions Prefixed(const std::string& prefix) {
  wfrt::EngineOptions opts;
  opts.instance_id_prefix = prefix;
  return opts;
}

TEST(StealTest, DetachAdoptMovesInstanceToAnotherEngine) {
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(DeclareDefaultProgram(&store, "ok").ok());
  ASSERT_TRUE(BindConstRc(&programs, "ok", 0).ok());
  RegisterChain(&store, "chain", 6, "ok");

  wfrt::Engine victim(&store, &programs, Prefixed("a:"));
  wfrt::Engine thief(&store, &programs, Prefixed("b:"));

  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = victim.StartProcess("chain");
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  bool quiescent = false;
  ASSERT_TRUE(victim.RunSlice(4, &quiescent).ok());
  ASSERT_FALSE(quiescent);

  auto pick = victim.PickDetachable();
  ASSERT_TRUE(pick.ok()) << pick.status().ToString();
  std::string stolen = *pick;
  auto detached = victim.Detach(stolen);
  ASSERT_TRUE(detached.ok()) << detached.status().ToString();
  EXPECT_EQ(detached->root_id, stolen);

  // The victim no longer knows the instance; the slot is a husk.
  EXPECT_TRUE(victim.FindInstance(stolen).status().IsNotFound());
  EXPECT_EQ(victim.stats().instances_detached, 1u);

  ASSERT_TRUE(thief.Adopt(*detached).ok());
  EXPECT_EQ(thief.stats().instances_stolen, 1u);
  ASSERT_TRUE(victim.Run().ok());
  ASSERT_TRUE(thief.Run().ok());

  EXPECT_TRUE(thief.IsFinished(stolen));
  auto out = thief.OutputOf(stolen);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Get("RC")->as_long(), 0);
  for (const std::string& id : ids) {
    if (id == stolen) continue;
    EXPECT_TRUE(victim.IsFinished(id));
  }
  EXPECT_EQ(victim.stats().instances_finished + thief.stats().instances_finished,
            3u);
}

// Golden invariance: wherever the steal lands, the combined navigation
// work across both engines equals the no-steal reference — no activity
// runs twice, none is skipped.
TEST(StealTest, StolenWorkIsInvariantAcrossEverySliceBoundary) {
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(DeclareDefaultProgram(&store, "ok").ok());
  ASSERT_TRUE(BindConstRc(&programs, "ok", 0).ok());
  RegisterChain(&store, "chain", 8, "ok");

  // Reference: both instances on one engine, no stealing.
  uint64_t ref_activities = 0, ref_connectors = 0;
  {
    wfrt::Engine engine(&store, &programs);
    ASSERT_TRUE(engine.StartProcess("chain").ok());
    ASSERT_TRUE(engine.StartProcess("chain").ok());
    ASSERT_TRUE(engine.Run().ok());
    ref_activities = engine.stats().activities_executed;
    ref_connectors = engine.stats().connectors_evaluated;
  }

  for (int k = 1; k <= 16; ++k) {
    SCOPED_TRACE("steal after " + std::to_string(k) + " steps");
    wfrt::Engine victim(&store, &programs, Prefixed("a:"));
    wfrt::Engine thief(&store, &programs, Prefixed("b:"));
    ASSERT_TRUE(victim.StartProcess("chain").ok());
    ASSERT_TRUE(victim.StartProcess("chain").ok());
    bool quiescent = false;
    ASSERT_TRUE(victim.RunSlice(k, &quiescent).ok());

    auto pick = victim.PickDetachable();
    if (pick.ok()) {
      auto detached = victim.Detach(*pick);
      ASSERT_TRUE(detached.ok()) << detached.status().ToString();
      ASSERT_TRUE(thief.Adopt(*detached).ok());
    }
    ASSERT_TRUE(victim.Run().ok());
    ASSERT_TRUE(thief.Run().ok());

    EXPECT_EQ(victim.stats().instances_finished +
                  thief.stats().instances_finished,
              2u);
    EXPECT_EQ(victim.stats().activities_executed +
                  thief.stats().activities_executed,
              ref_activities);
    EXPECT_EQ(victim.stats().connectors_evaluated +
                  thief.stats().connectors_evaluated,
              ref_connectors);
  }
}

TEST(StealTest, DetachRefusesIneligibleInstances) {
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  org::Directory dir;
  ASSERT_TRUE(dir.AddRole("clerk").ok());
  ASSERT_TRUE(dir.AddPerson("ann", 1, {"clerk"}).ok());
  ASSERT_TRUE(DeclareDefaultProgram(&store, "ok").ok());
  ASSERT_TRUE(BindConstRc(&programs, "ok", 0).ok());
  ASSERT_TRUE(DeclareDefaultProgram(&store, "sour").ok());
  ASSERT_TRUE(programs
                  .Bind("sour",
                        [](const data::Container&, data::Container*,
                           const wfrt::ProgramContext&) -> Status {
                          return Status::Unsupported("always fails");
                        })
                  .ok());
  ASSERT_TRUE(DeclareDefaultProgram(&store, "async").ok());
  ASSERT_TRUE(programs
                  .Bind("async",
                        [](const data::Container&, data::Container*,
                           const wfrt::ProgramContext&) -> Status {
                          return Status::Pending("external work");
                        })
                  .ok());
  RegisterChain(&store, "chain", 2, "ok");
  {
    wf::ProcessBuilder b(&store, "outer");
    b.Block("Sub", "chain");
    ASSERT_TRUE(b.Register().ok());
  }
  {
    wf::ProcessBuilder b(&store, "manual");
    b.Program("Approve", "ok").Manual().Role("clerk");
    ASSERT_TRUE(b.Register().ok());
  }
  {
    wf::ProcessBuilder b(&store, "poison");
    b.Program("Boom", "sour");
    ASSERT_TRUE(b.Register().ok());
  }
  {
    wf::ProcessBuilder b(&store, "pending");
    b.Program("Wait", "async");
    ASSERT_TRUE(b.Register().ok());
  }

  wfrt::Engine engine(&store, &programs);
  ASSERT_TRUE(engine.AttachOrganization(&dir).ok());

  // Block child: only whole families migrate.
  auto outer = engine.StartProcess("outer");
  ASSERT_TRUE(outer.ok());
  bool quiescent = false;
  ASSERT_TRUE(engine.RunSlice(1, &quiescent).ok());
  ASSERT_EQ(engine.instance_order().size(), 2u);
  std::string child = engine.instance_order()[1];
  EXPECT_TRUE(engine.Detach(child).status().IsInvalidArgument());

  // Posted work item: manual work is pinned to the engine that posted it.
  auto manual = engine.StartProcess("manual");
  ASSERT_TRUE(manual.ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_TRUE(engine.Detach(*manual).status().IsFailedPrecondition());

  // In-flight asynchronous program: CompleteAsync will report back here.
  auto pending = engine.StartProcess("pending");
  ASSERT_TRUE(pending.ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_TRUE(engine.Detach(*pending).status().IsFailedPrecondition());

  // Quarantined: the failure record stays with this engine.
  auto poison = engine.StartProcess("poison");
  ASSERT_TRUE(poison.ok());
  ASSERT_TRUE(engine.Run().ok());
  ASSERT_TRUE(engine.IsFailed(*poison));
  EXPECT_TRUE(engine.Detach(*poison).status().IsFailedPrecondition());

  // Finished: nothing left to migrate.
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_TRUE(engine.IsFinished(*outer));
  EXPECT_TRUE(engine.Detach(*outer).status().IsFailedPrecondition());
}

TEST(StealTest, BlockFamilyMigratesTogether) {
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(DeclareDefaultProgram(&store, "ok").ok());
  ASSERT_TRUE(BindConstRc(&programs, "ok", 0).ok());
  RegisterChain(&store, "inner", 3, "ok");
  {
    wf::ProcessBuilder b(&store, "outer");
    b.Program("Pre", "ok");
    b.Block("Sub", "inner");
    b.Program("Post", "ok");
    b.Connect("Pre", "Sub");
    b.Connect("Sub", "Post");
    b.MapToOutput("Post", {{"RC", "RC"}});
    ASSERT_TRUE(b.Register().ok());
  }

  wfrt::Engine victim(&store, &programs, Prefixed("a:"));
  wfrt::Engine thief(&store, &programs, Prefixed("b:"));
  auto id = victim.StartProcess("outer");
  ASSERT_TRUE(id.ok());
  // Run until the block child exists and has made some progress.
  bool quiescent = false;
  ASSERT_TRUE(victim.RunSlice(3, &quiescent).ok());
  ASSERT_EQ(victim.instance_order().size(), 2u);

  auto detached = victim.Detach(*id);
  ASSERT_TRUE(detached.ok()) << detached.status().ToString();
  EXPECT_EQ(detached->images.size(), 2u);  // root + child
  ASSERT_TRUE(thief.Adopt(*detached).ok());
  ASSERT_TRUE(thief.Run().ok());
  ASSERT_TRUE(thief.IsFinished(*id));
  auto out = thief.OutputOf(*id);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Get("RC")->as_long(), 0);
  // Victim retains nothing live.
  EXPECT_EQ(victim.unfinished_top_level(), 0u);
}

// PickDetachable's policy: never the family at the head of the queue,
// and among the rest the smallest by instance count, even when a larger
// family sits nearer the tail.
TEST(StealTest, PickDetachablePrefersTheSmallestNonHeadFamily) {
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(DeclareDefaultProgram(&store, "ok").ok());
  ASSERT_TRUE(BindConstRc(&programs, "ok", 0).ok());
  RegisterChain(&store, "chain", 2, "ok");
  {
    wf::ProcessBuilder b(&store, "outer");
    b.Block("Sub", "chain");
    ASSERT_TRUE(b.Register().ok());
  }

  // A two-instance block family, built on a helper engine: once its
  // block has spawned the child, one family is queued there, and a
  // single family is never offered.
  wfrt::Engine helper(&store, &programs, Prefixed("b:"));
  auto outer = helper.StartProcess("outer");
  ASSERT_TRUE(outer.ok());
  bool quiescent = false;
  ASSERT_TRUE(helper.RunSlice(1, &quiescent).ok());
  ASSERT_EQ(helper.instance_order().size(), 2u);
  ASSERT_EQ(helper.ready_depth(), 1u);
  EXPECT_TRUE(helper.PickDetachable().status().IsNotFound());
  auto block_family = helper.Detach(*outer);
  ASSERT_TRUE(block_family.ok()) << block_family.status().ToString();
  ASSERT_EQ(block_family->images.size(), 2u);

  wfrt::Engine engine(&store, &programs, Prefixed("a:"));
  EXPECT_TRUE(engine.PickDetachable().status().IsNotFound());  // empty
  auto head = engine.StartProcess("chain");
  ASSERT_TRUE(head.ok());
  EXPECT_TRUE(engine.PickDetachable().status().IsNotFound());  // head only
  auto single = engine.StartProcess("chain");
  ASSERT_TRUE(single.ok());
  // Adoption queues the block child's ready activity at the tail:
  // [head, single, block family].
  ASSERT_TRUE(engine.Adopt(*block_family).ok());
  ASSERT_EQ(engine.ready_depth(), 3u);

  auto pick = engine.PickDetachable();
  ASSERT_TRUE(pick.ok()) << pick.status().ToString();
  EXPECT_EQ(*pick, *single);
  // With the one-instance family gone, the block family is what is left.
  ASSERT_TRUE(engine.Detach(*single).ok());
  pick = engine.PickDetachable();
  ASSERT_TRUE(pick.ok()) << pick.status().ToString();
  EXPECT_EQ(*pick, *outer);
}

// Rewrites the `nth` line of `image` that starts with `tag` ("A" for an
// activity line): `field < 0` drops the line, otherwise tab field `field`
// becomes `value`.
std::string EditImageLine(const std::string& image, const std::string& tag,
                          int nth, int field, const std::string& value = "") {
  std::vector<std::string> out;
  int seen = 0;
  for (const std::string& line : Split(image, '\n')) {
    if (line.empty()) continue;
    std::vector<std::string> f = Split(line, '\t');
    if (f[0] == tag && seen++ == nth) {
      if (field < 0) continue;
      f[static_cast<size_t>(field)] = value;
      out.push_back(Join(f, "\t"));
      continue;
    }
    out.push_back(line);
  }
  return Join(out, "\n") + "\n";
}

// A rejected Adopt leaves the thief exactly as it was — no half-adopted
// family member indexed, ordered, or enqueued — so the intact image still
// adopts and runs to completion afterwards.
TEST(StealTest, RejectedAdoptLeavesThiefUntouched) {
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(DeclareDefaultProgram(&store, "ok").ok());
  ASSERT_TRUE(BindConstRc(&programs, "ok", 0).ok());
  RegisterChain(&store, "inner", 3, "ok");
  RegisterChain(&store, "chain", 2, "ok");
  {
    wf::ProcessBuilder b(&store, "outer");
    b.Program("Pre", "ok");
    b.Block("Sub", "inner");
    b.Program("Post", "ok");
    b.Connect("Pre", "Sub");
    b.Connect("Sub", "Post");
    b.MapToOutput("Post", {{"RC", "RC"}});
    ASSERT_TRUE(b.Register().ok());
  }

  wfrt::Engine victim(&store, &programs, Prefixed("a:"));
  auto id = victim.StartProcess("outer");
  ASSERT_TRUE(id.ok());
  bool quiescent = false;
  ASSERT_TRUE(victim.RunSlice(3, &quiescent).ok());
  auto intact = victim.Detach(*id);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  ASSERT_EQ(intact->images.size(), 2u);  // root + block child
  const std::string& root = intact->images[0];
  const std::string& child = intact->images[1];

  struct Case {
    const char* name;
    std::vector<std::string> images;
    bool corruption;  ///< Corruption, else another error code
  };
  const std::vector<Case> cases = {
      {"dropped activity line", {EditImageLine(root, "A", 1, -1), child},
       true},
      {"wrong eval arity", {EditImageLine(root, "A", 0, 5, "-"), child}, true},
      {"bad activity container image",
       {EditImageLine(root, "A", 0, 7, EscapeQuoted("NOPE=1")), child},
       false},
      {"bad child image", {root, EditImageLine(child, "A", 2, -1)}, true},
      {"duplicate member id", {root, root}, false},
      {"child link naming a non-member",
       {EditImageLine(root, "A", 1, 4, EscapeQuoted("a:wf-99")), child},
       true},
      {"member whose parent is not in the family",
       {root, EditImageLine(child, "I", 0, 4, EscapeQuoted("a:wf-99"))},
       true},
      {"member that names itself as parent",
       {root, EditImageLine(child, "I", 0, 4, EscapeQuoted("a:wf-2"))},
       true},
      {"unknown parent activity",
       {root, EditImageLine(child, "I", 0, 5, EscapeQuoted("Nope"))}, true},
      {"root image that names a parent",
       {EditImageLine(root, "I", 0, 4, EscapeQuoted("a:wf-2")), child},
       false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    wfrt::Engine thief(&store, &programs, Prefixed("b:"));
    ASSERT_TRUE(thief.StartProcess("chain").ok());  // work of its own
    const std::vector<std::string> order = thief.instance_order();
    const size_t depth = thief.ready_depth();
    const size_t unfinished = thief.unfinished_top_level();
    const uint64_t spinups = thief.stats().arena_spinups;

    wfrt::DetachedInstance bad = *intact;
    bad.images = c.images;
    Status st = thief.Adopt(bad);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.IsCorruption(), c.corruption) << st.ToString();
    EXPECT_EQ(thief.instance_order(), order);
    EXPECT_EQ(thief.ready_depth(), depth);
    EXPECT_EQ(thief.unfinished_top_level(), unfinished);
    EXPECT_EQ(thief.stats().arena_spinups, spinups);
    EXPECT_TRUE(thief.FindInstance(*id).status().IsNotFound());

    ASSERT_TRUE(thief.Adopt(*intact).ok());
    ASSERT_TRUE(thief.Run().ok());
    ASSERT_TRUE(thief.IsFinished(*id));
    EXPECT_EQ(thief.OutputOf(*id)->Get("RC")->as_long(), 0);
    EXPECT_EQ(thief.unfinished_top_level(), 0u);
  }
}

// Registers top -> block Mid -> block Leaf -> the three-step chain
// "leaf", and detaches a "top" instance from an "a:" engine once the
// chain's first step ran: a three-level family, mid-run at every level.
void DetachThreeLevelFamily(wf::DefinitionStore* store,
                            wfrt::ProgramRegistry* programs,
                            wfrt::DetachedInstance* family) {
  ASSERT_TRUE(DeclareDefaultProgram(store, "ok").ok());
  ASSERT_TRUE(BindConstRc(programs, "ok", 0).ok());
  RegisterChain(store, "leaf", 3, "ok");
  {
    wf::ProcessBuilder b(store, "mid");
    b.Block("Leaf", "leaf");
    b.MapToOutput("Leaf", {{"RC", "RC"}});
    ASSERT_TRUE(b.Register().ok());
  }
  {
    wf::ProcessBuilder b(store, "top");
    b.Program("Pre", "ok");
    b.Block("Mid", "mid");
    b.Program("Post", "ok");
    b.Connect("Pre", "Mid");
    b.Connect("Mid", "Post");
    b.MapToOutput("Post", {{"RC", "RC"}});
    ASSERT_TRUE(b.Register().ok());
  }
  wfrt::Engine victim(store, programs, Prefixed("a:"));
  auto root = victim.StartProcess("top");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  bool quiescent = false;
  // Pre; Mid spawns a:wf-2; its Leaf spawns a:wf-3; leaf step A1.
  ASSERT_TRUE(victim.RunSlice(4, &quiescent).ok());
  auto detached = victim.Detach(*root);
  ASSERT_TRUE(detached.ok()) << detached.status().ToString();
  ASSERT_EQ(detached->images.size(), 3u);
  *family = std::move(*detached);
}

// Adopted behind a slot of the thief's own, the family's links still
// reach every level: suspension, resumption and cancellation sweep all
// three, live and on replay of the thief's journal.
TEST(StealTest, AdoptedThreeLevelFamilyIsSweptAtEveryLevel) {
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  wfrt::DetachedInstance family;
  DetachThreeLevelFamily(&store, &programs, &family);
  ASSERT_FALSE(HasFatalFailure());
  const std::vector<std::string> ids = {family.root_id, "a:wf-2", "a:wf-3"};

  MemoryJournal journal;
  wfrt::Engine thief(&store, &programs, Prefixed("b:"));
  ASSERT_TRUE(thief.AttachJournal(&journal).ok());
  ASSERT_TRUE(thief.StartProcess("leaf").ok());
  ASSERT_TRUE(thief.Adopt(family).ok());

  // Recovers a copy of the thief's journal as it stands.
  auto recover = [&](wfrt::Engine* engine, MemoryJournal* copy) {
    auto records = journal.ReadAll();
    ASSERT_TRUE(records.ok());
    for (const wfjournal::Record& r : *records) {
      ASSERT_TRUE(copy->Append(r).ok());
    }
    ASSERT_TRUE(engine->AttachJournal(copy).ok());
    Status st = engine->Recover();
    ASSERT_TRUE(st.ok()) << st.ToString();
  };

  ASSERT_TRUE(thief.SuspendInstance(family.root_id).ok());
  for (const std::string& id : ids) EXPECT_TRUE(thief.IsSuspended(id)) << id;
  {
    MemoryJournal copy;
    wfrt::Engine recovered(&store, &programs, Prefixed("b:"));
    recover(&recovered, &copy);
    for (const std::string& id : ids) {
      EXPECT_TRUE(recovered.IsSuspended(id)) << id;
    }
  }
  ASSERT_TRUE(thief.ResumeSuspended(family.root_id).ok());
  for (const std::string& id : ids) EXPECT_FALSE(thief.IsSuspended(id)) << id;
  ASSERT_TRUE(thief.CancelInstance(family.root_id).ok());

  MemoryJournal copy;
  wfrt::Engine recovered(&store, &programs, Prefixed("b:"));
  recover(&recovered, &copy);
  for (const std::string& id : ids) {
    SCOPED_TRACE(id);
    EXPECT_TRUE(thief.IsCancelled(id));
    EXPECT_TRUE(thief.IsFinished(id));
    EXPECT_TRUE(recovered.IsCancelled(id));
    EXPECT_FALSE(recovered.IsSuspended(id));
    auto inst = thief.FindInstance(id);
    ASSERT_TRUE(inst.ok());
    for (const wf::Activity& a : (*inst)->definition->activities()) {
      EXPECT_EQ(*recovered.StateOf(id, a.name), *thief.StateOf(id, a.name))
          << a.name;
    }
  }
}

// The image bytes of that family, and of a checkpoint that holds it behind
// a slot of the thief's own: images name parents, parent activities and
// children by id and name, whatever the engines' slots are.
TEST(StealTest, ThreeLevelFamilyImagesMatchGolden) {
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  wfrt::DetachedInstance family;
  DetachThreeLevelFamily(&store, &programs, &family);
  ASSERT_FALSE(HasFatalFailure());
  const std::vector<std::string> kImages = {
      "I\ta:wf-1\ttop\t1\t\t\n"
      "F\t0000\t0\t\n"
      "D\t\t\n"
      "A\t4\t1\t0\t\t\t1\t\tRC=0\\n\n"
      "A\t2\t1\t0\ta:wf-2\t1\t-\t\t\n"
      "A\t0\t0\t0\t\t-\t\t\t\n",
      "I\ta:wf-2\tmid\t1\ta:wf-1\tMid\n"
      "F\t0000\t0\t\n"
      "D\t\t\n"
      "A\t2\t1\t0\ta:wf-3\t\t\t\t\n",
      "I\ta:wf-3\tleaf\t1\ta:wf-2\tLeaf\n"
      "F\t0000\t0\t\n"
      "D\t\t\n"
      "A\t4\t1\t0\t\t\t1\t\tRC=0\\n\n"
      "A\t1\t0\t0\t\t1\t-\t\t\n"
      "A\t0\t0\t0\t\t-\t\t\t\n",
  };
  EXPECT_EQ(family.images, kImages);

  MemoryJournal journal;
  wfrt::Engine thief(&store, &programs, Prefixed("b:"));
  ASSERT_TRUE(thief.AttachJournal(&journal).ok());
  ASSERT_TRUE(thief.StartProcess("leaf").ok());
  ASSERT_TRUE(thief.Adopt(family).ok());
  ASSERT_TRUE(thief.SuspendInstance(family.root_id).ok());
  ASSERT_TRUE(thief.Checkpoint().ok());
  auto records = journal.ReadAll();
  ASSERT_TRUE(records.ok());
  const wfjournal::Record& snapshot = records->back();
  ASSERT_EQ(snapshot.type, wfjournal::EventType::kSnapshot);
  // One escaped image per line: the thief's own instance, then the
  // family, now suspended.
  const std::string kPayload =
      "I\\tb:wf-1\\tleaf\\t1\\t\\t\\n"
      "F\\t0000\\t0\\t\\n"
      "D\\t\\t\\n"
      "A\\t1\\t0\\t0\\t\\t\\t-\\t\\t\\n"
      "A\\t0\\t0\\t0\\t\\t-\\t-\\t\\t\\n"
      "A\\t0\\t0\\t0\\t\\t-\\t\\t\\t\\n"
      "\n"
      "I\\ta:wf-1\\ttop\\t1\\t\\t\\n"
      "F\\t0001\\t0\\t\\n"
      "D\\t\\t\\n"
      "A\\t4\\t1\\t0\\t\\t\\t1\\t\\tRC=0\\\\n\\n"
      "A\\t2\\t1\\t0\\ta:wf-2\\t1\\t-\\t\\t\\n"
      "A\\t0\\t0\\t0\\t\\t-\\t\\t\\t\\n"
      "\n"
      "I\\ta:wf-2\\tmid\\t1\\ta:wf-1\\tMid\\n"
      "F\\t0001\\t0\\t\\n"
      "D\\t\\t\\n"
      "A\\t2\\t1\\t0\\ta:wf-3\\t\\t\\t\\t\\n"
      "\n"
      "I\\ta:wf-3\\tleaf\\t1\\ta:wf-2\\tLeaf\\n"
      "F\\t0001\\t0\\t\\n"
      "D\\t\\t\\n"
      "A\\t4\\t1\\t0\\t\\t\\t1\\t\\tRC=0\\\\n\\n"
      "A\\t1\\t0\\t0\\t\\t1\\t-\\t\\t\\n"
      "A\\t0\\t0\\t0\\t\\t-\\t\\t\\t\\n"
      "\n";
  EXPECT_EQ(snapshot.payload, kPayload);
  EXPECT_EQ(snapshot.extra, "2");
}

TEST(StealTest, MigrationSurvivesCrashRecoveryOnBothSides) {
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(DeclareDefaultProgram(&store, "ok").ok());
  ASSERT_TRUE(BindConstRc(&programs, "ok", 0).ok());
  RegisterChain(&store, "chain", 6, "ok");

  MemoryJournal victim_journal, thief_journal;
  std::string stolen, kept;
  {
    wfrt::Engine victim(&store, &programs, Prefixed("a:"));
    wfrt::Engine thief(&store, &programs, Prefixed("b:"));
    ASSERT_TRUE(victim.AttachJournal(&victim_journal).ok());
    ASSERT_TRUE(thief.AttachJournal(&thief_journal).ok());
    auto id1 = victim.StartProcess("chain");
    auto id2 = victim.StartProcess("chain");
    ASSERT_TRUE(id1.ok() && id2.ok());
    bool quiescent = false;
    ASSERT_TRUE(victim.RunSlice(3, &quiescent).ok());
    auto pick = victim.PickDetachable();
    ASSERT_TRUE(pick.ok());
    stolen = *pick;
    kept = (stolen == *id1) ? *id2 : *id1;
    auto detached = victim.Detach(stolen);
    ASSERT_TRUE(detached.ok());
    ASSERT_TRUE(thief.Adopt(*detached).ok());
    // Crash both engines here: neither instance has finished.
  }

  wfrt::Engine victim2(&store, &programs, Prefixed("a:"));
  ASSERT_TRUE(victim2.AttachJournal(&victim_journal).ok());
  ASSERT_TRUE(victim2.Recover().ok());
  ASSERT_TRUE(victim2.Run().ok());
  EXPECT_TRUE(victim2.IsFinished(kept));
  // The migrated instance is a husk on the victim, even after replay.
  EXPECT_TRUE(victim2.FindInstance(stolen).status().IsNotFound());

  wfrt::Engine thief2(&store, &programs, Prefixed("b:"));
  ASSERT_TRUE(thief2.AttachJournal(&thief_journal).ok());
  ASSERT_TRUE(thief2.Recover().ok());
  ASSERT_TRUE(thief2.Run().ok());
  EXPECT_TRUE(thief2.IsFinished(stolen));
  auto out = thief2.OutputOf(stolen);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Get("RC")->as_long(), 0);
}

TEST(StealTest, DanglingHandoffRecoversFromVictimJournal) {
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(DeclareDefaultProgram(&store, "ok").ok());
  ASSERT_TRUE(BindConstRc(&programs, "ok", 0).ok());
  RegisterChain(&store, "chain", 5, "ok");

  MemoryJournal victim_journal;
  std::string stolen;
  {
    wfrt::Engine victim(&store, &programs, Prefixed("a:"));
    ASSERT_TRUE(victim.AttachJournal(&victim_journal).ok());
    ASSERT_TRUE(victim.StartProcess("chain").ok());
    auto id2 = victim.StartProcess("chain");
    ASSERT_TRUE(id2.ok());
    bool quiescent = false;
    ASSERT_TRUE(victim.RunSlice(2, &quiescent).ok());
    auto pick = victim.PickDetachable();
    ASSERT_TRUE(pick.ok());
    stolen = *pick;
    ASSERT_TRUE(victim.Detach(stolen).ok());
    // Crash before any engine adopts: the handoff is dangling, but the
    // detach record carries the full image.
  }

  wfrt::Engine victim2(&store, &programs, Prefixed("a:"));
  ASSERT_TRUE(victim2.AttachJournal(&victim_journal).ok());
  ASSERT_TRUE(victim2.Recover().ok());
  ASSERT_TRUE(victim2.Run().ok());
  EXPECT_TRUE(victim2.FindInstance(stolen).status().IsNotFound());

  auto image = victim2.TakeDetachedImage(stolen);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  // The image is surrendered exactly once.
  EXPECT_TRUE(victim2.TakeDetachedImage(stolen).status().IsNotFound());

  wfrt::Engine rescuer(&store, &programs, Prefixed("b:"));
  ASSERT_TRUE(rescuer.Adopt(*image).ok());
  ASSERT_TRUE(rescuer.Run().ok());
  EXPECT_TRUE(rescuer.IsFinished(stolen));
  auto out = rescuer.OutputOf(stolen);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Get("RC")->as_long(), 0);
}

// ---------------------------------------------------------------------------
// Saga torture: steal the Trip saga at every slice boundary — including
// mid-compensation — crash the thief immediately after the handoff, and
// the saga guarantee must still hold after recovery.

class CountingRunner : public atm::SubTxnRunner {
 public:
  explicit CountingRunner(std::set<std::string> always_abort)
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

TEST(StealTortureTest, SagaStolenAtEveryPointSurvivesThiefCrash) {
  atm::SagaSpec spec("Trip");
  spec.Then("Flight").Then("Hotel").Then("Car");
  wf::DefinitionStore store;
  auto t = exo::TranslateSaga(spec, &store);
  ASSERT_TRUE(t.ok()) << t.status().ToString();

  // Hotel aborts: Flight commits, then compensates in reverse. Steals at
  // late k land inside the compensation phase.
  const std::set<std::string> aborts = {"Hotel"};

  for (int k = 0; k < 64; ++k) {
    SCOPED_TRACE("steal after " + std::to_string(k) + " steps");
    CountingRunner runner(aborts);
    wfrt::ProgramRegistry programs;
    ASSERT_TRUE(exo::BindSagaPrograms(spec, store, &runner, &programs).ok());

    MemoryJournal victim_journal, thief_journal;
    wfrt::Engine victim(&store, &programs, Prefixed("a:"));
    ASSERT_TRUE(victim.AttachJournal(&victim_journal).ok());
    auto id = victim.StartProcess(t->root_process);
    ASSERT_TRUE(id.ok());
    bool quiescent = false;
    ASSERT_TRUE(victim.RunSlice(k, &quiescent).ok());
    if (victim.IsFinished(*id)) break;  // k exceeded the saga's total steps

    auto detached = victim.Detach(*id);
    ASSERT_TRUE(detached.ok()) << detached.status().ToString();
    {
      wfrt::Engine thief(&store, &programs, Prefixed("b:"));
      ASSERT_TRUE(thief.AttachJournal(&thief_journal).ok());
      ASSERT_TRUE(thief.Adopt(*detached).ok());
      // Thief crashes before navigating a single step.
    }

    wfrt::Engine thief2(&store, &programs, Prefixed("b:"));
    ASSERT_TRUE(thief2.AttachJournal(&thief_journal).ok());
    ASSERT_TRUE(thief2.Recover().ok());
    ASSERT_TRUE(thief2.Run().ok());
    ASSERT_TRUE(thief2.IsFinished(*id));

    // The saga guarantee: nothing net-committed, compensation in reverse
    // order of the committed prefix.
    EXPECT_TRUE(runner.effective().empty());
    EXPECT_EQ(runner.comp_order(), std::vector<std::string>{"Flight"});
  }
}

// ---------------------------------------------------------------------------
// Multi-threaded fleet scheduler with skewed sleep profiles (TSan target;
// the suite name matches the CI fleet filter).

// Binds `name` to a program that sleeps for a wfsim-sampled duration.
void BindSleeper(wfrt::ProgramRegistry* programs, const std::string& name,
                 wfsim::DurationModel model) {
  ASSERT_TRUE(programs
                  ->Bind(name,
                         [model](const data::Container&, data::Container* out,
                                 const wfrt::ProgramContext& ctx) -> Status {
                           Rng rng(static_cast<uint64_t>(ctx.attempt) * 7919 +
                                   ctx.activity.size());
                           Micros d = model.Sample(&rng);
                           std::this_thread::sleep_for(
                               std::chrono::microseconds(d));
                           return out->Set("RC", data::Value(int64_t{0}));
                         })
                  .ok());
}

TEST(FleetStealTest, SkewedSleepBatchBalancesAcrossEngines) {
  // Engine e0 draws the heavy chain plus its share of light seeds, and the
  // three light engines drain first and relieve it. The steal happens by
  // construction, not by sleep timing: e0's own light steps fail (and are
  // retried) until one of e0's light families has run on another engine,
  // so e0 keeps stealable families queued, and its depth published, until
  // a thief takes some. A worker's engine is the id prefix of the first
  // light instance it runs: every engine starts on its own seeds.
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(DeclareDefaultProgram(&store, "heavy_step").ok());
  ASSERT_TRUE(DeclareDefaultProgram(&store, "light_step").ok());
  BindSleeper(&programs, "heavy_step", wfsim::DurationModel::Fixed(3000));
  std::atomic<bool> e0_light_ran_elsewhere{false};
  wfsim::DurationModel light = wfsim::DurationModel::Uniform(300, 700);
  ASSERT_TRUE(programs
                  .Bind("light_step",
                        [&e0_light_ran_elsewhere, light](
                            const data::Container&, data::Container* out,
                            const wfrt::ProgramContext& ctx) -> Status {
                          thread_local std::string home;
                          std::string origin = ctx.instance_id.substr(
                              0, ctx.instance_id.find(':') + 1);
                          if (home.empty()) home = origin;
                          if (origin == "e0:") {
                            if (home != "e0:") {
                              e0_light_ran_elsewhere.store(true);
                            } else if (!e0_light_ran_elsewhere.load()) {
                              std::this_thread::sleep_for(
                                  std::chrono::microseconds(500));
                              return Status::Timeout("waiting for a thief");
                            }
                          }
                          Rng rng(static_cast<uint64_t>(ctx.attempt) * 7919 +
                                  ctx.activity.size());
                          std::this_thread::sleep_for(
                              std::chrono::microseconds(light.Sample(&rng)));
                          return out->Set("RC", data::Value(int64_t{0}));
                        })
                  .ok());
  RegisterChain(&store, "heavy", 10, "heavy_step");
  RegisterChain(&store, "light", 2, "light_step");

  wfrt::EngineOptions eo;
  // e0's waiting retries are transient crashes; a bound that only a
  // fleet that never steals could exhaust (about a minute of retries)
  // turns that regression into a quarantine instead of a hang.
  eo.retry.max_attempts = 20000;
  wfrt::FleetOptions fo;
  fo.steal_slice = 2;  // low steal latency against multi-ms activities
  wfrt::EngineFleet fleet(&store, &programs, 4, eo, fo);

  std::vector<wfrt::EngineFleet::BatchSeed> seeds;
  seeds.push_back({"heavy", nullptr});
  for (int i = 0; i < 24; ++i) seeds.push_back({"light", nullptr});

  auto result = fleet.RunBatch(seeds);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(result->instances_finished, 25u);
  EXPECT_TRUE(e0_light_ran_elsewhere.load());
  EXPECT_GE(result->aggregate.instances_stolen, 1u);
  EXPECT_EQ(result->aggregate.instances_stolen,
            result->aggregate.instances_detached);
  // Every instance spun up from an arena image (seeds + adoptions).
  EXPECT_GE(result->aggregate.arena_spinups, 25u);
}

TEST(FleetStealTest, AdaptiveSliceShrinksUnderThiefPressure) {
  // One engine draws a long chain whose slices take tens of milliseconds;
  // the others drain their light seeds, go idle, and queue steal requests
  // at the loaded engine. Finding thieves queued at a slice boundary must
  // shrink the slice (counted per halving), whether or not the steal
  // itself is ultimately served or declined.
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(DeclareDefaultProgram(&store, "slow_step").ok());
  ASSERT_TRUE(DeclareDefaultProgram(&store, "quick_step").ok());
  BindSleeper(&programs, "slow_step", wfsim::DurationModel::Fixed(1500));
  BindSleeper(&programs, "quick_step", wfsim::DurationModel::Fixed(200));
  RegisterChain(&store, "long", 80, "slow_step");
  RegisterChain(&store, "short", 2, "quick_step");

  wfrt::FleetOptions fo;
  fo.steal_slice = 32;  // slices outlive the light engines' whole share
  wfrt::EngineFleet fleet(&store, &programs, 4, {}, fo);

  std::vector<wfrt::EngineFleet::BatchSeed> seeds;
  seeds.push_back({"long", nullptr});
  for (int i = 0; i < 12; ++i) seeds.push_back({"short", nullptr});

  auto result = fleet.RunBatch(seeds);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(result->instances_finished, 13u);
  EXPECT_GE(result->aggregate.steal_slice_shrinks, 1u);
}

TEST(FleetStealTest, CostAwareVictimsDrainSkewedBatch) {
  // Two loaded engines: one with many light seeds (deep queue, cheap
  // work), one with few heavy seeds (shallow queue, expensive work). The
  // thieves weigh queue depth by the victims' published mean activity
  // cost, and the batch must still drain with stealing intact. The cost
  // EWMA is thread-local to each engine and published only under the
  // coordinator lock, which is what TSan checks here.
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(DeclareDefaultProgram(&store, "heavy_step").ok());
  ASSERT_TRUE(DeclareDefaultProgram(&store, "light_step").ok());
  BindSleeper(&programs, "heavy_step", wfsim::DurationModel::Fixed(4000));
  BindSleeper(&programs, "light_step", wfsim::DurationModel::Fixed(300));
  RegisterChain(&store, "heavy", 8, "heavy_step");
  RegisterChain(&store, "light", 2, "light_step");

  wfrt::FleetOptions fo;
  fo.steal_slice = 1;
  wfrt::EngineFleet fleet(&store, &programs, 4, {}, fo);

  // [heavy, heavy, light x 14]: greedy assignment lands both heavies on
  // engines 0 and 1, the lights spread over all four.
  std::vector<wfrt::EngineFleet::BatchSeed> seeds;
  seeds.push_back({"heavy", nullptr});
  seeds.push_back({"heavy", nullptr});
  for (int i = 0; i < 14; ++i) seeds.push_back({"light", nullptr});

  auto result = fleet.RunBatch(seeds);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(result->instances_finished, 16u);
  EXPECT_GE(result->aggregate.instances_stolen, 1u);
}

TEST(FleetStealTest, HeterogeneousBatchValidatesEverySeed) {
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(DeclareDefaultProgram(&store, "ok").ok());
  ASSERT_TRUE(BindConstRc(&programs, "ok", 0).ok());
  RegisterChain(&store, "chain", 2, "ok");

  wfrt::EngineFleet fleet(&store, &programs, 2);
  std::vector<wfrt::EngineFleet::BatchSeed> seeds = {{"chain", nullptr},
                                                     {"ghost", nullptr}};
  EXPECT_TRUE(fleet.RunBatch(seeds).status().IsNotFound());
}

}  // namespace
}  // namespace exotica
