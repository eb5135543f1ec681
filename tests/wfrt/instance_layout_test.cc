// The packed hot/cold instance layout: the hot block an engine spins an
// instance up with is exactly what the plan's HotLayout says it is, and
// the dense state scans agree with the settled counter. Journal, audit,
// and error bytes of the layout are pinned by the determinism goldens.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "atm/saga.h"
#include "atm/subtxn.h"
#include "exotica/programs.h"
#include "exotica/saga_translate.h"
#include "wfrt/engine.h"

namespace exotica {
namespace {

// A runner that aborts a fixed set of subtransactions; enough to steer
// the saga into compensation.
class AbortingRunner : public atm::SubTxnRunner {
 public:
  explicit AbortingRunner(std::set<std::string> aborts)
      : aborts_(std::move(aborts)) {}
  Result<bool> Run(const std::string& name) override {
    return aborts_.count(name) == 0;
  }
  Result<bool> Compensate(const std::string&) override { return true; }

 private:
  std::set<std::string> aborts_;
};

class InstanceLayoutTest : public ::testing::Test {
 protected:
  // Trip saga with Hotel aborting: Flight commits then compensates —
  // block children plus the dead-path compensation chain.
  std::string SetupTripSaga() {
    atm::SagaSpec spec("Trip");
    spec.Then("Flight").Then("Hotel").Then("Car");
    auto t = exo::TranslateSaga(spec, &store_);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    runner_ = std::make_unique<AbortingRunner>(std::set<std::string>{"Hotel"});
    EXPECT_TRUE(
        exo::BindSagaPrograms(spec, store_, runner_.get(), &programs_).ok());
    return t->root_process;
  }

  wf::DefinitionStore store_;
  wfrt::ProgramRegistry programs_;
  std::unique_ptr<AbortingRunner> runner_;
};

// The packed hot block is exactly what the plan's HotLayout says it is,
// and the dense scans agree with the per-activity accessors.
TEST_F(InstanceLayoutTest, HotLayoutMatchesPlan) {
  std::string process = SetupTripSaga();
  auto def = store_.FindProcess(process);
  ASSERT_TRUE(def.ok());
  const wf::NavigationPlan& plan = (*def)->plan();
  const wf::HotLayout& hl = plan.hot();
  uint32_t n = plan.activity_count();
  EXPECT_EQ(hl.state_base, 0u);
  EXPECT_EQ(hl.enqueued_base, n);
  EXPECT_EQ(hl.attempt_base % 4, 0u);
  EXPECT_EQ(hl.failures_base, hl.attempt_base + 4 * n);
  EXPECT_EQ(hl.size, hl.failures_base + 4 * n);

  wfrt::Engine engine(&store_, &programs_);
  auto id = engine.RunToCompletion(process);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto inst = engine.FindInstance(*id);
  ASSERT_TRUE(inst.ok());
  EXPECT_EQ((*inst)->hot.size(), hl.size);
  size_t settled = (*inst)->CountInState(wf::ActivityState::kTerminated) +
                   (*inst)->CountInState(wf::ActivityState::kDead);
  EXPECT_EQ(settled, n);
  EXPECT_TRUE((*inst)->AllSettled());
}

}  // namespace
}  // namespace exotica
