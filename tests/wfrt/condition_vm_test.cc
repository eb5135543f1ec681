// Engine-level behaviour of the compiled condition VM: registered plans
// carry slot-bound programs, navigation routes conditions through them
// (stats prove it), conditions the compiler cannot bind tree-walk with
// identical traces and errors, and condition errors keep their exact text
// and transition context.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "wf/builder.h"
#include "wfjournal/journal.h"
#include "wfrt/engine.h"
#include "../testutil.h"

namespace exotica {
namespace {

using test::BindConstRc;
using test::BindScriptedRc;
using test::DeclareDefaultProgram;
using wf::ActivityState;

// `cond` AND an always-true clause nested deeper than the VM's value stack
// (expr::CompiledCondition::kMaxStack), so registration cannot bind the
// condition and the engine tree-walks it. Same truth value, same errors.
std::string TreeWalkOnly(const std::string& cond) {
  std::string pad = "RC * 0";
  for (int i = 0; i < 70; ++i) pad = "RC * 0 + (" + pad + ")";
  return "(" + cond + ") AND " + pad + " = 0";
}

class ConditionVmTest : public ::testing::Test {
 protected:
  // A -> B -> C with two conditioned connectors. `tree_walk_only` pads
  // both conditions past the VM so the same definition tree-walks.
  static void Register(wf::DefinitionStore* store,
                       wfrt::ProgramRegistry* programs, const char* name,
                       int fail_rc, bool tree_walk_only = false) {
    auto cond = [&](const std::string& c) {
      return tree_walk_only ? TreeWalkOnly(c) : c;
    };
    const std::string prog = std::string(name) + "_ok";
    ASSERT_TRUE(DeclareDefaultProgram(store, prog).ok());
    ASSERT_TRUE(BindConstRc(programs, prog, fail_rc).ok());
    wf::ProcessBuilder b(store, name);
    b.Program("A", prog).Program("B", prog).Program("C", prog);
    b.Connect("A", "B", cond("RC = 0 OR RC = 2"));
    b.Connect("B", "C", cond("RC >= 0 AND RC < 10 AND NOT (RC = 9)"));
    ASSERT_TRUE(b.Register().ok());
  }

  void Register(const char* name, int fail_rc) {
    Register(&store_, &programs_, name, fail_rc);
  }

  wf::DefinitionStore store_;
  wfrt::ProgramRegistry programs_;
};

TEST_F(ConditionVmTest, RegisteredPlanCarriesCompiledPrograms) {
  Register("p", 0);
  auto def = store_.FindProcess("p");
  ASSERT_TRUE(def.ok());
  const wf::NavigationPlan& plan = (*def)->plan();
  // Both conditioned connectors compiled; no exit conditions.
  EXPECT_EQ(plan.vm_program_count(), 2u);
  bool found_compiled = false;
  for (uint32_t c = 0; c < 2; ++c) {
    const wf::NavigationPlan::ConnectorInfo& ci = plan.connector(c);
    EXPECT_FALSE(ci.trivial);
    ASSERT_GE(ci.cond_vm, 0);
    const expr::CompiledCondition& prog = plan.vm_program(ci.cond_vm);
    EXPECT_FALSE(prog.empty());
    EXPECT_EQ(prog.bound_type(), "_Default");
    found_compiled = true;
  }
  EXPECT_TRUE(found_compiled);
}

TEST_F(ConditionVmTest, LazyPlanWithoutRegistryHasNoPrograms) {
  // plan() on a hand-built (unregistered) definition has no TypeRegistry,
  // so every condition keeps the tree-walk fallback.
  wf::ProcessDefinition def("bare");
  wf::Activity a;
  a.name = "A";
  ASSERT_TRUE(def.AddActivity(a).ok());
  a.name = "B";
  ASSERT_TRUE(def.AddActivity(a).ok());
  wf::ControlConnector c;
  c.from = "A";
  c.to = "B";
  auto cond = expr::Condition::Compile("RC = 0");
  ASSERT_TRUE(cond.ok());
  c.condition = *cond;
  ASSERT_TRUE(def.AddControlConnector(c).ok());
  const wf::NavigationPlan& plan = def.plan();
  EXPECT_EQ(plan.vm_program_count(), 0u);
  EXPECT_EQ(plan.connector(0).cond_vm, -1);
}

TEST_F(ConditionVmTest, NavigationUsesVmAndCountsIt) {
  Register("p", 0);
  wfrt::Engine engine(&store_, &programs_);
  auto id = engine.RunToCompletion("p");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(engine.IsFinished(*id));
  EXPECT_EQ(engine.stats().vm_condition_evals, 2u);
  EXPECT_EQ(engine.stats().tree_condition_evals, 0u);
}

TEST_F(ConditionVmTest, VmAndTreeWalkProduceIdenticalTraces) {
  // The same definition twice: bound to VM programs, and padded past the
  // VM so the engine's tree-walk fallback runs every condition.
  wf::DefinitionStore tree_store;
  wfrt::ProgramRegistry tree_programs;
  for (int rc : {0, 1}) {  // rc=1: first connector false → B, C dead via DPE
    SCOPED_TRACE("rc=" + std::to_string(rc));
    const std::string name = "p" + std::to_string(rc);
    Register(&store_, &programs_, name.c_str(), rc);
    Register(&tree_store, &tree_programs, name.c_str(), rc,
             /*tree_walk_only=*/true);
    auto tree_def = tree_store.FindProcess(name);
    ASSERT_TRUE(tree_def.ok());
    EXPECT_EQ((*tree_def)->plan().vm_program_count(), 0u);

    wfrt::Engine vm(&store_, &programs_);
    wfrt::Engine tree(&tree_store, &tree_programs);
    auto vm_id = vm.RunToCompletion(name);
    auto tree_id = tree.RunToCompletion(name);
    ASSERT_TRUE(vm_id.ok()) << vm_id.status().ToString();
    ASSERT_TRUE(tree_id.ok()) << tree_id.status().ToString();
    EXPECT_GT(vm.stats().vm_condition_evals, 0u);
    EXPECT_EQ(vm.stats().tree_condition_evals, 0u);
    EXPECT_EQ(tree.stats().vm_condition_evals, 0u);
    EXPECT_GT(tree.stats().tree_condition_evals, 0u);
    EXPECT_EQ(vm.stats().connectors_evaluated,
              tree.stats().connectors_evaluated);
    // Byte-identical navigation, event for event.
    EXPECT_EQ(vm.audit().CompactTrace(*vm_id, {}),
              tree.audit().CompactTrace(*tree_id, {}));
    const ActivityState b = rc == 0 ? ActivityState::kTerminated
                                    : ActivityState::kDead;
    EXPECT_EQ(*vm.StateOf(*vm_id, "B"), b);
    EXPECT_EQ(*tree.StateOf(*tree_id, "B"), b);
  }
}

TEST_F(ConditionVmTest, ExitConditionLoopsThroughVm) {
  ASSERT_TRUE(DeclareDefaultProgram(&store_, "flaky").ok());
  // RC: 1, 1, 0 — exit condition false twice, then true.
  ASSERT_TRUE(BindScriptedRc(&programs_, "flaky", {1, 1, 0}).ok());
  wf::ProcessBuilder b(&store_, "loop");
  b.Program("A", "flaky").ExitWhen("RC = 0");
  ASSERT_TRUE(b.Register().ok());

  auto def = store_.FindProcess("loop");
  ASSERT_TRUE(def.ok());
  ASSERT_GE((*def)->plan().activity(0).exit_vm, 0);

  wfrt::Engine engine(&store_, &programs_);
  auto id = engine.RunToCompletion("loop");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(engine.IsFinished(*id));
  EXPECT_EQ(engine.stats().reschedules, 2u);
  EXPECT_EQ(engine.stats().vm_condition_evals, 3u);
  EXPECT_EQ(engine.stats().tree_condition_evals, 0u);
}

TEST_F(ConditionVmTest, ConditionErrorIsFalseStillHonoredOnVmPath) {
  // Type error at evaluation time: RC is a long, "x" a string.
  auto register_err = [](wf::DefinitionStore* store,
                         wfrt::ProgramRegistry* programs,
                         const std::string& cond) {
    ASSERT_TRUE(DeclareDefaultProgram(store, "ok").ok());
    ASSERT_TRUE(BindConstRc(programs, "ok", 0).ok());
    wf::ProcessBuilder b(store, "err");
    b.Program("A", "ok").Program("B", "ok");
    b.Connect("A", "B", cond);
    ASSERT_TRUE(b.Register().ok());
  };
  register_err(&store_, &programs_, "RC < \"x\"");

  wfrt::EngineOptions options;
  options.condition_error_is_false = true;
  wfrt::Engine engine(&store_, &programs_, options);
  auto id = engine.RunToCompletion("err");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*engine.StateOf(*id, "B"), ActivityState::kDead);

  // Without the option, navigation fails with the same error on the VM
  // and on the tree-walk fallback.
  wfrt::Engine strict_vm(&store_, &programs_);
  ASSERT_TRUE(strict_vm.StartProcess("err").ok());
  Status vm_err = strict_vm.Run();
  ASSERT_FALSE(vm_err.ok());
  EXPECT_EQ(strict_vm.stats().vm_condition_evals, 1u);

  wf::DefinitionStore tree_store;
  wfrt::ProgramRegistry tree_programs;
  register_err(&tree_store, &tree_programs, TreeWalkOnly("RC < \"x\""));
  wfrt::Engine strict_tree(&tree_store, &tree_programs);
  ASSERT_TRUE(strict_tree.StartProcess("err").ok());
  Status tree_err = strict_tree.Run();
  ASSERT_FALSE(tree_err.ok());
  EXPECT_EQ(strict_tree.stats().tree_condition_evals, 1u);
  EXPECT_EQ(vm_err.ToString(), tree_err.ToString());
}

// A condition over a member the program never writes: FLAG has no
// default, so the VM's load reads null.
class ConditionVmNullReadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::StructType gate("Gate");
    ASSERT_TRUE(gate.AddScalar("FLAG", data::ScalarType::kLong).ok());
    ASSERT_TRUE(store_.types().Register(std::move(gate)).ok());
    wf::ProgramDeclaration decl;
    decl.name = "gated";
    decl.output_type = "Gate";
    ASSERT_TRUE(store_.DeclareProgram(std::move(decl)).ok());
    ASSERT_TRUE(programs_
                    .Bind("gated",
                          [](const data::Container&, data::Container*,
                             const wfrt::ProgramContext&) -> Status {
                            return Status::OK();  // FLAG stays unset
                          })
                    .ok());
    ASSERT_TRUE(DeclareDefaultProgram(&store_, "plain").ok());
    ASSERT_TRUE(BindConstRc(&programs_, "plain", 0).ok());

    wf::ProcessBuilder b(&store_, "nullread");
    b.Program("A", "gated").Program("B", "plain").Program("C", "plain");
    b.Connect("A", "B", "FLAG = 1");
    b.Otherwise("A", "C");
    ASSERT_TRUE(b.Register().ok());
  }

  wf::DefinitionStore store_;
  wfrt::ProgramRegistry programs_;
};

TEST_F(ConditionVmNullReadTest, ErrorNamesTheMemberWithTransitionContext) {
  wfrt::Engine engine(&store_, &programs_);
  ASSERT_TRUE(engine.StartProcess("nullread").ok());
  Status st = engine.Run();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(engine.stats().vm_condition_evals, 1u);
  EXPECT_EQ(st.ToString(),
            "FailedPrecondition: transition condition A -> B in wf-1: "
            "condition references unset data: FLAG");
}

TEST_F(ConditionVmNullReadTest, ConditionErrorIsFalseFiresOtherwise) {
  // With condition_error_is_false the null read demotes to "connector
  // false" and the otherwise path fires, journal included.
  wfjournal::MemoryJournal journal;
  wfrt::EngineOptions options;
  options.condition_error_is_false = true;
  wfrt::Engine engine(&store_, &programs_, options);
  ASSERT_TRUE(engine.AttachJournal(&journal).ok());
  auto id = engine.RunToCompletion("nullread");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(engine.IsFinished(*id));
  EXPECT_EQ(*engine.StateOf(*id, "B"), ActivityState::kDead);
  EXPECT_EQ(*engine.StateOf(*id, "C"), ActivityState::kTerminated);

  auto records = journal.ReadAll();
  ASSERT_TRUE(records.ok());
  std::vector<std::string> evals;
  for (const wfjournal::Record& r : *records) {
    if (r.type != wfjournal::EventType::kConnectorEval) continue;
    evals.push_back(r.activity + "->" + r.to + "=" + (r.flag ? "1" : "0"));
  }
  EXPECT_EQ(evals, (std::vector<std::string>{"A->B=0", "A->C=1"}));
  EXPECT_EQ(engine.audit().CompactTrace(*id, {}),
            (std::vector<std::string>{
                "wf-1:instance-started", "A:ready", "A:started", "A:finished",
                "A:terminated", "A->B:false", "A->C:true", "B:dead",
                "C:ready", "C:started", "C:finished", "C:terminated",
                "wf-1:instance-finished"}));
}

}  // namespace
}  // namespace exotica
