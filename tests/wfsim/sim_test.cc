// Workflow simulation tests: navigation fidelity under virtual time,
// stochastic branching frequencies, role-capacity queueing, loops.

#include "wfsim/sim.h"

#include <gtest/gtest.h>

#include "atm/saga.h"
#include "exotica/saga_translate.h"
#include "wf/builder.h"

namespace exotica::wfsim {
namespace {

class SimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wf::ProgramDeclaration p;
    p.name = "prog";
    ASSERT_TRUE(store_.DeclareProgram(p).ok());
  }

  ActivityProfile Fixed(Micros d, std::vector<std::pair<int64_t, double>> rc =
                                      {{0, 1.0}}) {
    ActivityProfile prof;
    prof.duration = DurationModel::Fixed(d);
    prof.rc_distribution = std::move(rc);
    return prof;
  }

  wf::DefinitionStore store_;
};

TEST_F(SimTest, ChainMakespanIsSumOfDurations) {
  wf::ProcessBuilder b(&store_, "chain");
  b.Program("A", "prog").Program("B", "prog").Program("C", "prog");
  b.Connect("A", "B", "RC = 0").Connect("B", "C", "RC = 0");
  ASSERT_TRUE(b.Register().ok());

  SimConfig cfg;
  cfg.trials = 10;
  cfg.profiles["A"] = Fixed(100);
  cfg.profiles["B"] = Fixed(200);
  cfg.profiles["C"] = Fixed(300);
  auto r = Simulate(store_, "chain", cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->MakespanMean(), 600);
  EXPECT_EQ(r->MakespanMax(), 600);
  EXPECT_EQ(r->activities.at("A").executions, 10u);
}

TEST_F(SimTest, ParallelBranchesOverlap) {
  wf::ProcessBuilder b(&store_, "par");
  b.Program("Fork", "prog").Program("L", "prog").Program("R", "prog")
      .Program("Join", "prog");
  b.Connect("Fork", "L").Connect("Fork", "R");
  b.Connect("L", "Join").Connect("R", "Join");
  ASSERT_TRUE(b.Register().ok());

  SimConfig cfg;
  cfg.trials = 5;
  cfg.profiles["Fork"] = Fixed(10);
  cfg.profiles["L"] = Fixed(100);
  cfg.profiles["R"] = Fixed(400);
  cfg.profiles["Join"] = Fixed(10);
  auto r = Simulate(store_, "par", cfg);
  ASSERT_TRUE(r.ok());
  // Critical path: 10 + max(100, 400) + 10.
  EXPECT_EQ(r->MakespanMean(), 420);
}

TEST_F(SimTest, StochasticBranchFrequenciesMatchProbabilities) {
  wf::ProcessBuilder b(&store_, "branch");
  b.Program("Decide", "prog").Program("Yes", "prog").Program("No", "prog");
  b.Connect("Decide", "Yes", "RC = 0");
  b.Connect("Decide", "No", "RC <> 0");
  ASSERT_TRUE(b.Register().ok());

  SimConfig cfg;
  cfg.trials = 4000;
  cfg.seed = 9;
  cfg.profiles["Decide"] = Fixed(1, {{0, 0.7}, {1, 0.3}});
  auto r = Simulate(store_, "branch", cfg);
  ASSERT_TRUE(r.ok());
  double yes_rate = static_cast<double>(r->activities.at("Yes").executions) /
                    static_cast<double>(cfg.trials);
  EXPECT_NEAR(yes_rate, 0.7, 0.03);
  EXPECT_EQ(r->activities.at("Yes").executions +
                r->activities.at("Yes").dead,
            static_cast<uint64_t>(cfg.trials));
}

TEST_F(SimTest, ExitConditionLoopRepeatsUntilSuccess) {
  wf::ProcessBuilder b(&store_, "loop");
  b.Program("Retry", "prog").ExitWhen("RC = 0");
  ASSERT_TRUE(b.Register().ok());

  SimConfig cfg;
  cfg.trials = 3000;
  cfg.seed = 4;
  // Commits with probability 1/2: geometric with mean 2 attempts.
  cfg.profiles["Retry"] = Fixed(10, {{0, 0.5}, {1, 0.5}});
  auto r = Simulate(store_, "loop", cfg);
  ASSERT_TRUE(r.ok());
  double mean_attempts =
      static_cast<double>(r->activities.at("Retry").executions) /
      static_cast<double>(cfg.trials);
  EXPECT_NEAR(mean_attempts, 2.0, 0.12);
}

TEST_F(SimTest, RoleCapacityQueuesManualWork) {
  // Three parallel manual reviews, one reviewer: the reviews serialize.
  wf::ProcessBuilder b(&store_, "reviews");
  b.Program("Start", "prog");
  for (const char* name : {"R1", "R2", "R3"}) {
    b.Program(name, "prog").Manual().Role("reviewer");
    b.Connect("Start", name);
  }
  ASSERT_TRUE(b.Register().ok());

  SimConfig cfg;
  cfg.trials = 4;
  cfg.profiles["Start"] = Fixed(0);
  for (const char* name : {"R1", "R2", "R3"}) {
    cfg.profiles[name] = Fixed(100);
  }
  cfg.role_capacity["reviewer"] = 1;
  auto r = Simulate(store_, "reviews", cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->MakespanMean(), 300);  // fully serialized
  // Waiting time per trial: second waits 100, third waits 200.
  EXPECT_EQ(r->roles.at("reviewer").queue_micros, 4 * (100 + 200));

  // With capacity 3 the reviews run in parallel.
  cfg.role_capacity["reviewer"] = 3;
  auto r3 = Simulate(store_, "reviews", cfg);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->MakespanMean(), 100);
  EXPECT_EQ(r3->roles.at("reviewer").queue_micros, 0);
}

TEST_F(SimTest, BlocksNestAndDriveParentTiming) {
  wf::ProcessBuilder inner(&store_, "inner");
  inner.Program("X", "prog").Program("Y", "prog");
  inner.Connect("X", "Y");
  ASSERT_TRUE(inner.Register().ok());

  wf::ProcessBuilder outer(&store_, "outer");
  outer.Block("B", "inner").Program("Z", "prog");
  outer.Connect("B", "Z", "RC = 0");
  ASSERT_TRUE(outer.Register().ok());

  SimConfig cfg;
  cfg.trials = 3;
  cfg.profiles["X"] = Fixed(50);
  cfg.profiles["Y"] = Fixed(70);
  cfg.profiles["Z"] = Fixed(30);
  auto r = Simulate(store_, "outer", cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->MakespanMean(), 150);
}

TEST_F(SimTest, BlockRcIsItsChildsOutputThroughDataFlow) {
  // The child reports RC 0 with p = 0.3, and a data connector carries it
  // to the child's process output, which is the block's output: B's
  // transition conditions branch on the child's RC.
  wf::ProcessBuilder inner(&store_, "inner");
  inner.Program("C", "prog");
  inner.MapToOutput("C", {{"RC", "RC"}});
  ASSERT_TRUE(inner.Register().ok());

  wf::ProcessBuilder outer(&store_, "outer");
  outer.Block("B", "inner").Program("Yes", "prog").Program("No", "prog");
  outer.Connect("B", "Yes", "RC = 0");
  outer.Connect("B", "No", "RC <> 0");
  ASSERT_TRUE(outer.Register().ok());

  SimConfig cfg;
  cfg.trials = 4000;
  cfg.seed = 9;
  cfg.profiles["C"] = Fixed(1, {{0, 0.3}, {1, 0.7}});
  auto r = Simulate(store_, "outer", cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const uint64_t trials = static_cast<uint64_t>(cfg.trials);
  double yes_rate = static_cast<double>(r->activities.at("Yes").executions) /
                    static_cast<double>(trials);
  EXPECT_NEAR(yes_rate, 0.3, 0.03);
  EXPECT_EQ(r->activities.at("Yes").executions +
                r->activities.at("No").executions,
            trials);
  EXPECT_EQ(r->activities.at("Yes").dead + r->activities.at("No").dead,
            trials);
  EXPECT_EQ(r->activities.at("B").executions, trials);
}

TEST_F(SimTest, CrashedManualAttemptKeepsItsPerson) {
  // One adjuster, three assessments posted at once, crashes at p = 0.5.
  // A crashed assessment is re-run at once by the person it held: R1, the
  // first one dispatched, never waits, and the adjuster works without a
  // gap, so each trial lasts exactly its assessment attempts.
  wf::ProcessBuilder b(&store_, "crashy_assessments");
  b.Program("Start", "prog");
  for (const char* name : {"R1", "R2", "R3"}) {
    b.Program(name, "prog").Manual().Role("adjuster");
    b.Connect("Start", name);
  }
  ASSERT_TRUE(b.Register().ok());

  SimConfig cfg;
  cfg.trials = 200;
  cfg.profiles["Start"] = Fixed(0);
  for (const char* name : {"R1", "R2", "R3"}) {
    cfg.profiles[name] = Fixed(100);
    cfg.profiles[name].crash_probability = 0.5;
  }
  cfg.role_capacity["adjuster"] = 1;
  auto r = Simulate(store_, "crashy_assessments", cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  uint64_t attempts = 0, crashes = 0;
  for (const char* name : {"R1", "R2", "R3"}) {
    attempts += r->activities.at(name).executions;
    crashes += r->activities.at(name).crashes;
  }
  EXPECT_GT(r->activities.at("R1").crashes, 0u);
  EXPECT_EQ(r->activities.at("R1").queue_micros, 0);
  EXPECT_EQ(attempts, 3 * static_cast<uint64_t>(cfg.trials) + crashes);
  Micros total = 0;
  for (Micros m : r->makespans) total += m;
  EXPECT_EQ(total, static_cast<Micros>(attempts) * 100);
  EXPECT_EQ(r->roles.at("adjuster").busy_micros, total);

  // An assessment that always crashes quarantines the instance when the
  // adjuster reaches it; the trial reports that, not the finish of the
  // assessment the quarantine cut short.
  cfg.profiles["R2"].crash_probability = 0.0;
  cfg.profiles["R3"].crash_probability = 1.0;
  cfg.max_crash_retries = 3;
  auto hopeless = Simulate(store_, "crashy_assessments", cfg);
  ASSERT_TRUE(hopeless.status().IsFailedPrecondition())
      << hopeless.status().ToString();
  EXPECT_NE(hopeless.status().ToString().find("R3"), std::string::npos)
      << hopeless.status().ToString();
  EXPECT_NE(hopeless.status().ToString().find("failed 3 times"),
            std::string::npos)
      << hopeless.status().ToString();
}

TEST_F(SimTest, DeterministicPerSeed) {
  wf::ProcessBuilder b(&store_, "p");
  b.Program("A", "prog");
  ASSERT_TRUE(b.Register().ok());
  SimConfig cfg;
  cfg.trials = 100;
  cfg.profiles["A"].duration = DurationModel::Uniform(10, 1000);
  auto r1 = Simulate(store_, "p", cfg);
  auto r2 = Simulate(store_, "p", cfg);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->makespans, r2->makespans);
  cfg.seed = 43;
  auto r3 = Simulate(store_, "p", cfg);
  ASSERT_TRUE(r3.ok());
  EXPECT_NE(r1->makespans, r3->makespans);
}

TEST_F(SimTest, DurationModels) {
  Rng rng(5);
  EXPECT_EQ(DurationModel::Fixed(42).Sample(&rng), 42);
  for (int i = 0; i < 200; ++i) {
    Micros u = DurationModel::Uniform(10, 20).Sample(&rng);
    EXPECT_GE(u, 10);
    EXPECT_LE(u, 20);
    EXPECT_GE(DurationModel::Exponential(100).Sample(&rng), 0);
  }
  // Exponential mean roughly calibrated.
  long double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    sum += static_cast<long double>(DurationModel::Exponential(100).Sample(&rng));
  }
  EXPECT_NEAR(static_cast<double>(sum / 20000), 100.0, 5.0);
}

TEST_F(SimTest, PercentilesAreOrdered) {
  wf::ProcessBuilder b(&store_, "p2");
  b.Program("A", "prog");
  ASSERT_TRUE(b.Register().ok());
  SimConfig cfg;
  cfg.trials = 500;
  cfg.profiles["A"].duration = DurationModel::Exponential(1000);
  auto r = Simulate(store_, "p2", cfg);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->MakespanPercentile(0.5), r->MakespanPercentile(0.95));
  EXPECT_LE(r->MakespanPercentile(0.95), r->MakespanMax());
  EXPECT_GT(r->MakespanMean(), 0);
}

TEST_F(SimTest, SimulatesATranslatedSagaProcess) {
  // Design-time what-if over an Exotica-translated saga: the forward
  // block's steps take time, and its RC is its _DONE sentinel's, carried
  // through the block's data connectors (a block has no profile of its
  // own). The steps report RC 0, so the forward block commits and the
  // compensation block stays dead — the forward timing is the question
  // simulation answers here.
  atm::SagaSpec spec("Trip");
  spec.Then("Flight").Then("Hotel");
  auto translation = exo::TranslateSaga(spec, &store_);
  ASSERT_TRUE(translation.ok()) << translation.status().ToString();

  SimConfig cfg;
  cfg.trials = 50;
  cfg.profiles["Flight"] = Fixed(100);
  cfg.profiles["Hotel"] = Fixed(200);
  auto r = Simulate(store_, translation->root_process, cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Critical path: Flight + Hotel (+ zero-cost sentinels and blocks).
  EXPECT_EQ(r->MakespanMean(), 300);
  EXPECT_EQ(r->activities.at("Flight").executions, 50u);
}

TEST_F(SimTest, ConfigValidation) {
  wf::ProcessBuilder b(&store_, "p3");
  b.Program("A", "prog");
  ASSERT_TRUE(b.Register().ok());
  SimConfig cfg;
  cfg.trials = 0;
  EXPECT_TRUE(Simulate(store_, "p3", cfg).status().IsInvalidArgument());
  cfg.trials = 1;
  cfg.profiles["A"] = ActivityProfile{};
  cfg.profiles["A"].rc_distribution = {{0, 0.5}};  // sums to 0.5
  EXPECT_TRUE(Simulate(store_, "p3", cfg).status().IsInvalidArgument());
  EXPECT_TRUE(Simulate(store_, "ghost", SimConfig{}).status().IsNotFound());
}

TEST_F(SimTest, CrashProbabilityAmplifiesRetriesAndMakespan) {
  wf::ProcessBuilder b(&store_, "crashy");
  b.Program("A", "prog");
  ASSERT_TRUE(b.Register().ok());

  SimConfig cfg;
  cfg.trials = 500;
  cfg.profiles["A"] = Fixed(100);
  cfg.profiles["A"].crash_probability = 0.5;
  auto r = Simulate(store_, "crashy", cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Every crash spends the attempt's time and re-runs the activity: runs
  // exceed trials by exactly the crash count, and the mean makespan
  // reflects the retry amplification (expected 2x at p = 0.5).
  const ActivityStats& a = r->activities.at("A");
  EXPECT_GT(a.crashes, 0u);
  EXPECT_EQ(a.executions, static_cast<uint64_t>(cfg.trials) + a.crashes);
  EXPECT_GT(r->MakespanMean(), 150);
  EXPECT_EQ(a.busy_micros, static_cast<Micros>(a.executions) * 100);
}

TEST_F(SimTest, CrashRetryCapSurfacesAsError) {
  wf::ProcessBuilder b(&store_, "hopeless");
  b.Program("A", "prog");
  ASSERT_TRUE(b.Register().ok());

  SimConfig cfg;
  cfg.trials = 3;
  cfg.profiles["A"] = Fixed(10);
  cfg.profiles["A"].crash_probability = 1.0;
  cfg.max_crash_retries = 5;
  auto r = Simulate(store_, "hopeless", cfg);
  EXPECT_TRUE(r.status().IsFailedPrecondition()) << r.status().ToString();
}

}  // namespace
}  // namespace exotica::wfsim
