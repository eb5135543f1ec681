#include "wf/process.h"

#include <gtest/gtest.h>

namespace exotica::wf {
namespace {

ProcessDefinition MakeDiamond() {
  ProcessDefinition p("diamond");
  for (const char* name : {"A", "B", "C", "D"}) {
    Activity a;
    a.name = name;
    a.program = "prog";
    EXPECT_TRUE(p.AddActivity(std::move(a)).ok());
  }
  EXPECT_TRUE(p.AddControlConnector({"A", "B", {}, false}).ok());
  EXPECT_TRUE(p.AddControlConnector({"A", "C", {}, false}).ok());
  EXPECT_TRUE(p.AddControlConnector({"B", "D", {}, false}).ok());
  EXPECT_TRUE(p.AddControlConnector({"C", "D", {}, false}).ok());
  return p;
}

TEST(ProcessTest, DuplicateActivityRejected) {
  ProcessDefinition p("p");
  Activity a;
  a.name = "X";
  ASSERT_TRUE(p.AddActivity(a).ok());
  EXPECT_TRUE(p.AddActivity(a).IsAlreadyExists());
}

TEST(ProcessTest, ConnectorEndpointChecks) {
  ProcessDefinition p = MakeDiamond();
  EXPECT_TRUE(p.AddControlConnector({"A", "Ghost", {}, false}).IsNotFound());
  EXPECT_TRUE(p.AddControlConnector({"Ghost", "A", {}, false}).IsNotFound());
  EXPECT_TRUE(
      p.AddControlConnector({"A", "A", {}, false}).IsValidationError());
  EXPECT_TRUE(p.AddControlConnector({"A", "B", {}, false}).IsAlreadyExists());
}

TEST(ProcessTest, TopologyQueries) {
  ProcessDefinition p = MakeDiamond();
  EXPECT_EQ(p.OutgoingControl("A").size(), 2u);
  EXPECT_TRUE(p.HasControlPath("A", "D"));
  EXPECT_TRUE(p.HasControlPath("A", "A"));
  EXPECT_FALSE(p.HasControlPath("D", "A"));
  EXPECT_FALSE(p.HasControlPath("B", "C"));

  auto topo = p.TopologicalOrder();
  ASSERT_TRUE(topo.ok());
  EXPECT_EQ((*topo)[0], "A");
  EXPECT_EQ((*topo)[3], "D");
}

TEST(ProcessTest, CycleDetected) {
  ProcessDefinition p("cyclic");
  for (const char* name : {"A", "B"}) {
    Activity a;
    a.name = name;
    ASSERT_TRUE(p.AddActivity(std::move(a)).ok());
  }
  ASSERT_TRUE(p.AddControlConnector({"A", "B", {}, false}).ok());
  ASSERT_TRUE(p.AddControlConnector({"B", "A", {}, false}).ok());
  EXPECT_TRUE(p.TopologicalOrder().status().IsValidationError());
}

TEST(ProcessTest, DataConnectorEndpointRules) {
  ProcessDefinition p = MakeDiamond();
  DataConnector bad_from;
  bad_from.from = DataEndpoint::ProcessOutput();
  bad_from.to = DataEndpoint::Of("A");
  EXPECT_TRUE(p.AddDataConnector(bad_from).IsValidationError());

  DataConnector bad_to;
  bad_to.from = DataEndpoint::Of("A");
  bad_to.to = DataEndpoint::ProcessInput();
  EXPECT_TRUE(p.AddDataConnector(bad_to).IsValidationError());

  DataConnector good;
  good.from = DataEndpoint::Of("A");
  good.to = DataEndpoint::Of("B");
  good.mapping.Add("RC", "RC");
  EXPECT_TRUE(p.AddDataConnector(good).ok());
}

TEST(DefinitionStoreTest, ProgramDeclarations) {
  DefinitionStore store;
  ProgramDeclaration decl;
  decl.name = "p";
  ASSERT_TRUE(store.DeclareProgram(decl).ok());
  EXPECT_TRUE(store.DeclareProgram(decl).IsAlreadyExists());
  EXPECT_TRUE(store.HasProgram("p"));
  EXPECT_FALSE(store.HasProgram("q"));
  EXPECT_TRUE(store.FindProgram("q").status().IsNotFound());

  ProgramDeclaration bad;
  bad.name = "bad";
  bad.input_type = "Ghost";
  EXPECT_TRUE(store.DeclareProgram(bad).IsValidationError());
}

TEST(DefinitionStoreTest, ProcessRegistrationValidates) {
  DefinitionStore store;
  ProcessDefinition empty("empty");
  EXPECT_TRUE(store.AddProcess(empty).IsValidationError());
  EXPECT_FALSE(store.HasProcess("empty"));
  EXPECT_TRUE(store.RemoveProcess("empty").IsNotFound());
}

}  // namespace
}  // namespace exotica::wf
