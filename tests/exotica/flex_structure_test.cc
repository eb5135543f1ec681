// Structural checks on the Figure-3 translation: the registered process
// inventory and graph shapes follow rules 1-7 (not just the observable
// behaviour, which flex_workflow_test covers).

#include <gtest/gtest.h>

#include "atm/flex.h"
#include "exotica/blocks.h"
#include "exotica/flex_translate.h"
#include "wf/process.h"

namespace exotica {
namespace {

class FlexStructureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = exo::TranslateFlex(atm::MakeFigure3Spec(), &store_);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    translation_ = *t;
  }

  wf::DefinitionStore store_;
  exo::FlexTranslation translation_;
};

TEST_F(FlexStructureTest, ProcessInventory) {
  // Root sequence, its compensation, the nested alternatives, and the
  // grouped compensatable run {T5, T6} with its block pair.
  for (const char* name : {
           "Figure3",                // root Seq
           "Figure3_CMP",            // root compensation (T1 and deeper)
           "Figure3_B3",             // Alt(p1-subtree, T3)
           "Figure3_B3_P",           // Seq[T4, Alt(...)]
           "Figure3_B3_F",           // retriable T3
           "Figure3_B3_P_B2",        // Alt(Seq[T5,T6,T8], T7)
           "Figure3_B3_P_B2_P",      // Seq[T5,T6,T8]
           "Figure3_B3_P_B2_P_R1F",  // forward block of the {T5,T6} run
           "Figure3_B3_P_B2_P_R1C",  // its compensation block
           "Figure3_B3_P_B2_F",      // retriable T7
       }) {
    EXPECT_TRUE(store_.HasProcess(name)) << name;
  }
  // Every registered process is reported in the translation result.
  for (const std::string& p : translation_.processes) {
    EXPECT_TRUE(store_.HasProcess(p)) << p;
  }
}

TEST_F(FlexStructureTest, RootSequenceShape) {
  auto root = store_.FindProcess("Figure3");
  ASSERT_TRUE(root.ok());
  // Elements: run {T1}, pivot T2, Alt block; plus _FAIL, _CB, _CLEAR.
  EXPECT_TRUE((*root)->HasActivity("_R1"));
  EXPECT_TRUE((*root)->HasActivity("T2"));
  EXPECT_TRUE((*root)->HasActivity("_B3"));
  EXPECT_TRUE((*root)->HasActivity("_FAIL"));
  EXPECT_TRUE((*root)->HasActivity("_CB"));
  EXPECT_TRUE((*root)->HasActivity("_CLEAR"));

  // Rule 3: the pivot's outgoing connectors branch on commit vs abort.
  auto outs = (*root)->OutgoingControl("T2");
  ASSERT_EQ(outs.size(), 2u);
  std::set<std::string> conds;
  for (size_t i : outs) {
    conds.insert((*root)->control_connectors()[i].condition.source());
  }
  EXPECT_TRUE(conds.count("RC = 0"));
  EXPECT_TRUE(conds.count("RC <> 0"));

  // The failure trigger OR-joins every element.
  auto fail = (*root)->FindActivity("_FAIL");
  ASSERT_TRUE(fail.ok());
  EXPECT_EQ((*fail)->join, wf::JoinKind::kOr);
  size_t into_fail = 0;
  for (const wf::ControlConnector& c : (*root)->control_connectors()) {
    if (c.to == "_FAIL") ++into_fail;
  }
  EXPECT_EQ(into_fail, 3u);
}

TEST_F(FlexStructureTest, RetriableLeavesCarryExitConditions) {
  // Rule 4: T3 and T7 loop until commit via their exit conditions.
  for (const char* process : {"Figure3_B3_F", "Figure3_B3_P_B2_F"}) {
    auto p = store_.FindProcess(process);
    ASSERT_TRUE(p.ok()) << process;
    ASSERT_EQ((*p)->activities().size(), 1u);
    EXPECT_EQ((*p)->activities()[0].exit_condition.source(), "RC = 0")
        << process;
  }
}

TEST_F(FlexStructureTest, RunBlockPairMatchesFigure2) {
  // The {T5, T6} run: forward block chains on commit with a _DONE
  // sentinel; the compensation block has the NOP trigger, State-gated
  // connectors, and retried compensations.
  auto fwd = store_.FindProcess("Figure3_B3_P_B2_P_R1F");
  ASSERT_TRUE(fwd.ok());
  EXPECT_TRUE((*fwd)->HasActivity("T5"));
  EXPECT_TRUE((*fwd)->HasActivity("T6"));
  EXPECT_TRUE((*fwd)->HasActivity("_DONE"));

  auto cmp = store_.FindProcess("Figure3_B3_P_B2_P_R1C");
  ASSERT_TRUE(cmp.ok());
  EXPECT_TRUE((*cmp)->HasActivity("_NOP"));
  EXPECT_TRUE((*cmp)->HasActivity("C_T5"));
  EXPECT_TRUE((*cmp)->HasActivity("C_T6"));
  // Reverse order: C_T6 precedes C_T5.
  EXPECT_TRUE((*cmp)->HasControlPath("C_T6", "C_T5"));
  EXPECT_FALSE((*cmp)->HasControlPath("C_T5", "C_T6"));
  // State-gated triggers and retried compensations.
  bool found_gate = false;
  for (const wf::ControlConnector& c : (*cmp)->control_connectors()) {
    if (c.from == "_NOP" && c.to == "C_T5") {
      EXPECT_EQ(c.condition.source(), "State_T5 = 1");
      found_gate = true;
    }
  }
  EXPECT_TRUE(found_gate);
  auto c5 = (*cmp)->FindActivity("C_T5");
  ASSERT_TRUE(c5.ok());
  EXPECT_EQ((*c5)->exit_condition.source(), "RC = 0");
  EXPECT_EQ((*c5)->join, wf::JoinKind::kOr);
}

TEST_F(FlexStructureTest, StateTypesFlattenCompensatableLeaves) {
  // The root state type carries exactly the compensatable leaves.
  auto type = store_.types().Find("Figure3_State");
  ASSERT_TRUE(type.ok());
  std::set<std::string> members;
  for (const data::Member& m : (*type)->members()) members.insert(m.name);
  EXPECT_EQ(members, (std::set<std::string>{"RC", "State_T1", "State_T5",
                                            "State_T6"}));
}

}  // namespace
}  // namespace exotica
