// Determinism regression anchors.
//
// The engine promises byte-identical audit traces for identical inputs
// (single-threaded FIFO navigation). These goldens were captured from the
// pre-NavigationPlan engine, so they also pin the refactor to the exact
// event order of the name-keyed implementation: saga compensation
// (Figure 2, T3 aborts) and the flexible transaction's alternative path
// (Figure 3/4, T5 aborts forces p2).
//
// The journal golden below was written by the pre-refactor FileJournal;
// replaying it proves the on-disk format is unchanged across the dense-id
// and group-commit work, and writing it again byte for byte pins the
// encoder as well as the decoder.

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "atm/flex.h"
#include "atm/saga.h"
#include "atm/subtxn.h"
#include "exotica/flex_translate.h"
#include "exotica/programs.h"
#include "exotica/saga_translate.h"
#include "wfjournal/journal.h"
#include "wfrt/engine.h"

namespace exotica {
namespace {

const char* const kSagaGolden[] = {
    "wf-1|wf-1:instance-started",
    "wf-1|FB:ready",
    "wf-1|FB:started",
    "wf-2|wf-2:instance-started",
    "wf-2|T1:ready",
    "wf-2|T1:started",
    "wf-2|T1:finished",
    "wf-2|T1:terminated",
    "wf-2|T1->T2:true",
    "wf-2|T2:ready",
    "wf-2|T2:started",
    "wf-2|T2:finished",
    "wf-2|T2:terminated",
    "wf-2|T2->T3:true",
    "wf-2|T3:ready",
    "wf-2|T3:started",
    "wf-2|T3:finished",
    "wf-2|T3:terminated",
    "wf-2|T3->_DONE:false",
    "wf-2|_DONE:dead",
    "wf-2|wf-2:instance-finished",
    "wf-1|FB:finished",
    "wf-1|FB:terminated",
    "wf-1|FB->CB:true",
    "wf-1|CB:ready",
    "wf-1|CB:started",
    "wf-3|wf-3:instance-started",
    "wf-3|_NOP:ready",
    "wf-3|_NOP:started",
    "wf-3|_NOP:finished",
    "wf-3|_NOP:terminated",
    "wf-3|_NOP->_CDONE:true",
    "wf-3|_NOP->C_T1:true",
    "wf-3|_NOP->C_T2:true",
    "wf-3|_NOP->C_T3:false",
    "wf-3|_CDONE:ready",
    "wf-3|C_T3:dead",
    "wf-3|C_T3->C_T2:false",
    "wf-3|C_T2:ready",
    "wf-3|_CDONE:started",
    "wf-3|_CDONE:finished",
    "wf-3|_CDONE:terminated",
    "wf-3|C_T2:started",
    "wf-3|C_T2:finished",
    "wf-3|C_T2:terminated",
    "wf-3|C_T2->C_T1:true",
    "wf-3|C_T1:ready",
    "wf-3|C_T1:started",
    "wf-3|C_T1:finished",
    "wf-3|C_T1:terminated",
    "wf-3|wf-3:instance-finished",
    "wf-1|CB:finished",
    "wf-1|CB:terminated",
    "wf-1|wf-1:instance-finished",
};
const char* const kFlexGolden[] = {
    "wf-1|wf-1:instance-started",
    "wf-1|_R1:ready",
    "wf-1|_R1:started",
    "wf-2|wf-2:instance-started",
    "wf-2|T1:ready",
    "wf-2|T1:started",
    "wf-2|T1:finished",
    "wf-2|T1:terminated",
    "wf-2|T1->_DONE:true",
    "wf-2|_DONE:ready",
    "wf-2|_DONE:started",
    "wf-2|_DONE:finished",
    "wf-2|_DONE:terminated",
    "wf-2|wf-2:instance-finished",
    "wf-1|_R1:finished",
    "wf-1|_R1:terminated",
    "wf-1|_R1->T2:true",
    "wf-1|_R1->_FAIL:false",
    "wf-1|T2:ready",
    "wf-1|T2:started",
    "wf-1|T2:finished",
    "wf-1|T2:terminated",
    "wf-1|T2->_B3:true",
    "wf-1|T2->_FAIL:false",
    "wf-1|_B3:ready",
    "wf-1|_B3:started",
    "wf-3|wf-3:instance-started",
    "wf-3|_P:ready",
    "wf-3|_P:started",
    "wf-4|wf-4:instance-started",
    "wf-4|T4:ready",
    "wf-4|T4:started",
    "wf-4|T4:finished",
    "wf-4|T4:terminated",
    "wf-4|T4->_B2:true",
    "wf-4|T4->_FAIL:false",
    "wf-4|_B2:ready",
    "wf-4|_B2:started",
    "wf-5|wf-5:instance-started",
    "wf-5|_P:ready",
    "wf-5|_P:started",
    "wf-6|wf-6:instance-started",
    "wf-6|_R1:ready",
    "wf-6|_R1:started",
    "wf-7|wf-7:instance-started",
    "wf-7|T5:ready",
    "wf-7|T5:started",
    "wf-7|T5:finished",
    "wf-7|T5:terminated",
    "wf-7|T5->T6:false",
    "wf-7|T6:dead",
    "wf-7|T6->_DONE:false",
    "wf-7|_DONE:dead",
    "wf-7|wf-7:instance-finished",
    "wf-6|_R1:finished",
    "wf-6|_R1:terminated",
    "wf-6|_R1->T8:false",
    "wf-6|_R1->_FAIL:true",
    "wf-6|T8:dead",
    "wf-6|T8->_FAIL:false",
    "wf-6|_FAIL:ready",
    "wf-6|_FAIL:started",
    "wf-6|_FAIL:finished",
    "wf-6|_FAIL:terminated",
    "wf-6|_FAIL->_CB:true",
    "wf-6|_CB:ready",
    "wf-6|_CB:started",
    "wf-8|wf-8:instance-started",
    "wf-8|_C0:ready",
    "wf-8|_C0:started",
    "wf-9|wf-9:instance-started",
    "wf-9|_NOP:ready",
    "wf-9|_NOP:started",
    "wf-9|_NOP:finished",
    "wf-9|_NOP:terminated",
    "wf-9|_NOP->_CDONE:true",
    "wf-9|_NOP->C_T5:false",
    "wf-9|_NOP->C_T6:false",
    "wf-9|_CDONE:ready",
    "wf-9|C_T6:dead",
    "wf-9|C_T6->C_T5:false",
    "wf-9|C_T5:dead",
    "wf-9|_CDONE:started",
    "wf-9|_CDONE:finished",
    "wf-9|_CDONE:terminated",
    "wf-9|wf-9:instance-finished",
    "wf-8|_C0:finished",
    "wf-8|_C0:terminated",
    "wf-8|wf-8:instance-finished",
    "wf-6|_CB:finished",
    "wf-6|_CB:terminated",
    "wf-6|_CB->_CLEAR:true",
    "wf-6|_CLEAR:ready",
    "wf-6|_CLEAR:started",
    "wf-6|_CLEAR:finished",
    "wf-6|_CLEAR:terminated",
    "wf-6|wf-6:instance-finished",
    "wf-5|_P:finished",
    "wf-5|_P:terminated",
    "wf-5|_P->_F:true",
    "wf-5|_F:ready",
    "wf-5|_F:started",
    "wf-10|wf-10:instance-started",
    "wf-10|T7:ready",
    "wf-10|T7:started",
    "wf-10|T7:finished",
    "wf-10|T7:terminated",
    "wf-10|wf-10:instance-finished",
    "wf-5|_F:finished",
    "wf-5|_F:terminated",
    "wf-5|wf-5:instance-finished",
    "wf-4|_B2:finished",
    "wf-4|_B2:terminated",
    "wf-4|_B2->_FAIL:false",
    "wf-4|_FAIL:dead",
    "wf-4|_FAIL->_CB:false",
    "wf-4|_CB:dead",
    "wf-4|_CB->_CLEAR:false",
    "wf-4|_CLEAR:dead",
    "wf-4|wf-4:instance-finished",
    "wf-3|_P:finished",
    "wf-3|_P:terminated",
    "wf-3|_P->_F:false",
    "wf-3|_F:dead",
    "wf-3|wf-3:instance-finished",
    "wf-1|_B3:finished",
    "wf-1|_B3:terminated",
    "wf-1|_B3->_FAIL:false",
    "wf-1|_FAIL:dead",
    "wf-1|_FAIL->_CB:false",
    "wf-1|_CB:dead",
    "wf-1|_CB->_CLEAR:false",
    "wf-1|_CLEAR:dead",
    "wf-1|wf-1:instance-finished",
};

std::vector<std::string> TraceOf(const wfrt::Engine& engine) {
  std::vector<std::string> out;
  for (const auto& e : engine.audit().events()) {
    out.push_back(e.instance + "|" + e.Compact());
  }
  return out;
}

template <size_t N>
std::vector<std::string> AsVector(const char* const (&rows)[N]) {
  return std::vector<std::string>(rows, rows + N);
}

TEST(DeterminismTest, SagaCompensationTraceMatchesGolden) {
  atm::SagaSpec spec("S");
  for (int i = 1; i <= 3; ++i) spec.Then("T" + std::to_string(i));
  atm::ScriptedRunner runner;
  runner.AlwaysAbort("T3");

  wf::DefinitionStore store;
  auto t = exo::TranslateSaga(spec, &store);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(exo::BindSagaPrograms(spec, store, &runner, &programs).ok());

  wfrt::Engine engine(&store, &programs);
  auto id = engine.RunToCompletion(t->root_process);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(TraceOf(engine), AsVector(kSagaGolden));
}

TEST(DeterminismTest, FlexAlternativePathTraceMatchesGolden) {
  atm::ScriptedRunner runner;
  runner.AlwaysAbort("T5");

  wf::DefinitionStore store;
  auto t = exo::TranslateFlex(atm::MakeFigure3Spec(), &store);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(
      exo::BindFlexPrograms(atm::MakeFigure3Spec(), store, &runner, &programs)
          .ok());

  wfrt::Engine engine(&store, &programs);
  auto id = engine.RunToCompletion(t->root_process);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(TraceOf(engine), AsVector(kFlexGolden));
}

// Byte image of the saga-compensation journal as written by the
// pre-refactor engine + FileJournal (LinearSaga(3), T3 always aborts).
const char kSeedJournal[] = R"jrn(0	0	wf-1			0	v1:S	
1	1	wf-1	FB		0		
2	2	wf-1	FB		0	1	
3	0	wf-2	FB	wf-1	0	v1:S_FWD	
4	1	wf-2	T1		0		
5	2	wf-2	T1		0	1	
6	3	wf-2	T1		0	RC=0\nCommitted=1\n	
7	4	wf-2	T1		0		
8	7	wf-2	T1	T2	1		
9	1	wf-2	T2		0		
10	2	wf-2	T2		0	1	
11	3	wf-2	T2		0	RC=0\nCommitted=1\n	
12	4	wf-2	T2		0		
13	7	wf-2	T2	T3	1		
14	1	wf-2	T3		0		
15	2	wf-2	T3		0	1	
16	3	wf-2	T3		0	RC=1\nCommitted=0\n	
17	4	wf-2	T3		0		
18	7	wf-2	T3	_DONE	0		
19	6	wf-2	_DONE		0		
20	8	wf-2			0	State_T1=1\nState_T2=1\nState_T3=0\n	
21	3	wf-1	FB		0	State_T1=1\nState_T2=1\nState_T3=0\n	
22	4	wf-1	FB		0		
23	7	wf-1	FB	CB	1		
24	1	wf-1	CB		0		
25	2	wf-1	CB		0	1	
26	0	wf-3	CB	wf-1	0	v1:S_CMP	State_T1=1\nState_T2=1\nState_T3=0\n
27	1	wf-3	_NOP		0		
28	2	wf-3	_NOP		0	1	
29	3	wf-3	_NOP		0	RC=1\nState_T1=1\nState_T2=1\nState_T3=0\n	
30	4	wf-3	_NOP		0		
31	7	wf-3	_NOP	_CDONE	1		
32	7	wf-3	_NOP	C_T1	1		
33	7	wf-3	_NOP	C_T2	1		
34	7	wf-3	_NOP	C_T3	0		
35	1	wf-3	_CDONE		0		
36	6	wf-3	C_T3		0		
37	7	wf-3	C_T3	C_T2	0		
38	1	wf-3	C_T2		0		
39	2	wf-3	_CDONE		0	1	
40	3	wf-3	_CDONE		0	RC=1\n	
41	4	wf-3	_CDONE		0		
42	2	wf-3	C_T2		0	1	
43	3	wf-3	C_T2		0	RC=0\nCommitted=1\n	
44	4	wf-3	C_T2		0		
45	7	wf-3	C_T2	C_T1	1		
46	1	wf-3	C_T1		0		
47	2	wf-3	C_T1		0	1	
48	3	wf-3	C_T1		0	RC=0\nCommitted=1\n	
49	4	wf-3	C_T1		0		
50	8	wf-3			0	RC=1\n	
51	3	wf-1	CB		0	RC=1\n	
52	4	wf-1	CB		0		
53	8	wf-1			0	RC=1\nCompensated=1\n	
)jrn";

TEST(DeterminismTest, PreRefactorJournalReplays) {
  std::string path = ::testing::TempDir() + "/exo_seed_compat.log";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(kSeedJournal, sizeof(kSeedJournal) - 1);
  }

  atm::SagaSpec spec("S");
  for (int i = 1; i <= 3; ++i) spec.Then("T" + std::to_string(i));
  atm::ScriptedRunner runner;
  runner.AlwaysAbort("T3");
  wf::DefinitionStore store;
  auto t = exo::TranslateSaga(spec, &store);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(exo::BindSagaPrograms(spec, store, &runner, &programs).ok());

  auto journal = wfjournal::FileJournal::Open(path);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  wfrt::Engine engine(&store, &programs);
  ASSERT_TRUE(engine.AttachJournal(journal->get()).ok());
  Status rec = engine.Recover();
  ASSERT_TRUE(rec.ok()) << rec.ToString();
  ASSERT_TRUE(engine.Run().ok());

  // The journaled run had already finished: compensated, not committed.
  EXPECT_TRUE(engine.IsFinished("wf-1"));
  EXPECT_EQ(engine.stats().instances_started, 3u);
  auto out = engine.OutputOf("wf-1");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->Get("RC")->as_long(), 0);
  EXPECT_EQ(out->Get("Compensated")->as_long(), 1);
  std::remove(path.c_str());
}

TEST(DeterminismTest, WriterReproducesSeedJournalBytes) {
  // The writer side of the same pin: running the seed scenario with a
  // FileJournal attached writes exactly the bytes above.
  std::string path = ::testing::TempDir() + "/exo_seed_writer.log";
  std::remove(path.c_str());

  atm::SagaSpec spec("S");
  for (int i = 1; i <= 3; ++i) spec.Then("T" + std::to_string(i));
  atm::ScriptedRunner runner;
  runner.AlwaysAbort("T3");
  wf::DefinitionStore store;
  auto t = exo::TranslateSaga(spec, &store);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(exo::BindSagaPrograms(spec, store, &runner, &programs).ok());
  {
    auto journal = wfjournal::FileJournal::Open(path);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    wfrt::Engine engine(&store, &programs);
    ASSERT_TRUE(engine.AttachJournal(journal->get()).ok());
    auto id = engine.RunToCompletion(t->root_process);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }

  std::ifstream in(path, std::ios::binary);
  std::string written((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(written, std::string(kSeedJournal, sizeof(kSeedJournal) - 1));
  EXPECT_EQ(written.size(), 1369u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace exotica
