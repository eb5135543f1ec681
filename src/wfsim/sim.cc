#include "wfsim/sim.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <utility>

#include "org/directory.h"
#include "wfrt/engine.h"

namespace exotica::wfsim {

Micros DurationModel::Sample(Rng* rng) const {
  switch (kind) {
    case Kind::kFixed:
      return a;
    case Kind::kUniform:
      return a >= b ? a : rng->Uniform(a, b);
    case Kind::kExponential: {
      double u = rng->NextDouble();
      if (u <= 0.0) u = 1e-12;
      return static_cast<Micros>(-static_cast<double>(a) * std::log(u));
    }
  }
  return 0;
}

int64_t ActivityProfile::SampleRc(Rng* rng) const {
  double u = rng->NextDouble();
  double acc = 0.0;
  for (const auto& [rc, p] : rc_distribution) {
    acc += p;
    if (u < acc) return rc;
  }
  return rc_distribution.empty() ? 0 : rc_distribution.back().first;
}

Micros SimResult::MakespanMean() const {
  if (makespans.empty()) return 0;
  long double sum = 0;
  for (Micros m : makespans) sum += static_cast<long double>(m);
  return static_cast<Micros>(sum / static_cast<long double>(makespans.size()));
}

Micros SimResult::MakespanPercentile(double p) const {
  if (makespans.empty()) return 0;
  double idx = p * static_cast<double>(makespans.size() - 1);
  return makespans[static_cast<size_t>(idx)];
}

Micros SimResult::MakespanMax() const {
  return makespans.empty() ? 0 : makespans.back();
}

namespace {

/// The discrete-event simulation of one Simulate call. Every declared
/// program is bound to Execute, and each manual activity's role is
/// staffed by one directory person of the same name, with a count of how
/// many of the role's people are free. Each trial runs a fresh engine
/// whose clock is the virtual time: a program samples its attempt's
/// duration and stays pending, and the finish is reported through
/// CompleteAsync when the virtual clock reaches it.
class Simulator {
 public:
  Simulator(const wf::DefinitionStore& store, const SimConfig& config,
            SimResult* result)
      : store_(store), config_(config), result_(result), rng_(config.seed) {
    options_.clock = &clock_;
    options_.audit_enabled = false;
    // Simulated programs write only RC: a condition over a member nothing
    // wrote is a design-time unknown and reads false.
    options_.condition_error_is_false = true;
    options_.max_exit_retries = config.max_exit_retries;
    options_.retry.max_attempts = config.max_crash_retries;
  }
  // The bound programs hold `this`.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Binds the programs and staffs the roles.
  Status Setup() {
    for (const std::string& name : store_.ProgramNames()) {
      EXO_RETURN_NOT_OK(programs_.Bind(
          name, [this](const data::Container&, data::Container* output,
                       const wfrt::ProgramContext& context) {
            return Execute(*output, context);
          }));
    }
    std::set<std::string> roles;
    for (const std::string& name : store_.ProcessNames()) {
      EXO_ASSIGN_OR_RETURN(const wf::ProcessDefinition* def,
                           store_.FindProcess(name));
      for (const wf::Activity& a : def->activities()) {
        if (a.start_mode == wf::StartMode::kManual && !a.role.empty()) {
          roles.insert(a.role);
        }
      }
    }
    for (const std::string& role : roles) {
      EXO_RETURN_NOT_OK(staff_.AddRole(role));
      EXO_RETURN_NOT_OK(staff_.AddPerson(role, 0, {role}));
    }
    return Status::OK();
  }

  /// One virtual execution of `process`; returns its makespan.
  Result<Micros> RunTrial(const std::string& process) {
    clock_.Set(0);
    engine_.emplace(&store_, &programs_, options_);
    EXO_RETURN_NOT_OK(engine_->AttachOrganization(&staff_));
    finishes_.clear();
    due_.clear();
    free_.clear();
    waiting_.clear();
    lost_.clear();
    next_item_ = 1;

    EXO_ASSIGN_OR_RETURN(std::string root, engine_->StartProcess(process));
    Status run = Drive(root);
    // A quarantine ends the trial: report it rather than the completion
    // it cut short.
    if (engine_->IsFailed(root)) {
      return Status::FailedPrecondition(
          "simulated " + engine_->FailedInstances().front().reason);
    }
    EXO_RETURN_NOT_OK(run);
    if (!engine_->IsFinished(root)) {
      return Status::Internal("simulation deadlocked: root never finished");
    }
    EXO_RETURN_NOT_OK(Tally());
    return clock_.NowMicros();  // the root finished at the last report
  }

 private:
  /// What CompleteAsync needs to report a pending attempt's finish.
  struct Finish {
    std::string instance;
    std::string activity;
    std::string person;     ///< manual: the role's person it holds
    data::Container output; ///< the attempt's fresh output container
  };

  /// Reports finishes in virtual-time order until none is pending or the
  /// root is quarantined.
  Status Drive(const std::string& root) {
    EXO_RETURN_NOT_OK(engine_->Run());
    EXO_RETURN_NOT_OK(AssignPosted());
    while (!due_.empty() && !engine_->IsFailed(root)) {
      std::pop_heap(due_.begin(), due_.end(), std::greater<>());
      const auto [at, seq] = due_.back();
      due_.pop_back();
      Finish f = std::move(finishes_[seq]);
      clock_.Set(at);
      const int64_t rc = ProfileOf(f.activity).SampleRc(&rng_);
      if (f.output.HasPath("RC")) {
        EXO_RETURN_NOT_OK(f.output.Set("RC", data::Value(rc)));
      }
      // The person is free before the exit condition is checked, so a
      // rescheduled manual activity queues behind the role's waiting work.
      if (!f.person.empty()) EXO_RETURN_NOT_OK(Release(f.person));
      EXO_RETURN_NOT_OK(engine_->CompleteAsync(f.instance, f.activity,
                                               f.output));
      EXO_RETURN_NOT_OK(AssignPosted());
    }
    return Status::OK();
  }

  const ActivityProfile& ProfileOf(const std::string& name) const {
    auto it = config_.profiles.find(name);
    return it == config_.profiles.end() ? config_.default_profile : it->second;
  }

  int Capacity(const std::string& role) const {
    auto it = config_.role_capacity.find(role);
    return it == config_.role_capacity.end() ? 1 : it->second;
  }

  /// The program: samples the attempt's duration, then either crashes
  /// (its time is carried to the re-run) or stays pending until its
  /// finish.
  Status Execute(const data::Container& output,
                 const wfrt::ProgramContext& context) {
    const ActivityProfile& profile = ProfileOf(context.activity);
    const Micros took = profile.duration.Sample(&rng_);
    ActivityStats& stats = result_->activities[context.activity];
    stats.busy_micros += took;
    if (!context.person.empty()) {
      RoleStats& role = result_->roles[context.person];
      role.capacity = Capacity(context.person);
      role.busy_micros += took;
    }
    std::pair<std::string, std::string> key(context.instance_id,
                                            context.activity);
    if (profile.crash_probability > 0.0 &&
        rng_.NextDouble() < profile.crash_probability) {
      ++stats.crashes;
      lost_[key] += took;
      return Status::Internal("simulated crash");
    }
    Micros at = clock_.NowMicros() + took;
    if (auto it = lost_.find(key); it != lost_.end()) {
      at += it->second;
      lost_.erase(it);
    }
    due_.emplace_back(at, finishes_.size());
    std::push_heap(due_.begin(), due_.end(), std::greater<>());
    finishes_.push_back(Finish{std::move(key.first), std::move(key.second),
                               context.person, output});
    return Status::Pending("simulated");
  }

  /// Hands each work item posted since the last call to a free person of
  /// its role, or queues it. The re-run of a crashed manual attempt keeps
  /// the person the crash held.
  Status AssignPosted() {
    org::WorklistService* lists = engine_->worklists();
    for (Result<const org::WorkItem*> item = lists->Find(next_item_);
         item.ok(); item = lists->Find(++next_item_)) {
      const org::WorkItem& w = **item;
      if (w.state != org::WorkItemState::kPosted) continue;
      const bool rerun =
          !lost_.empty() && lost_.count({w.process_instance, w.activity}) > 0;
      int& free = free_.try_emplace(w.role, Capacity(w.role)).first->second;
      if (rerun || free > 0) {
        if (!rerun) --free;
        EXO_RETURN_NOT_OK(Start(w));
      } else {
        waiting_[w.role].push_back(w.id);
      }
    }
    return Status::OK();
  }

  /// A person of `role` finished: the role's longest-waiting item starts,
  /// or the person is free.
  Status Release(const std::string& role) {
    std::deque<org::WorkItemId>& queue = waiting_[role];
    if (queue.empty()) {
      ++free_[role];
      return Status::OK();
    }
    EXO_ASSIGN_OR_RETURN(const org::WorkItem* item,
                         engine_->worklists()->Find(queue.front()));
    queue.pop_front();
    return Start(*item);
  }

  /// Claims and runs `item` as its role's person, charging the time it
  /// waited since it was posted.
  Status Start(const org::WorkItem& item) {
    const Micros waited = clock_.NowMicros() - item.posted_at;
    result_->activities[item.activity].queue_micros += waited;
    result_->roles[item.role].queue_micros += waited;
    const org::WorkItemId id = item.id;
    const std::string person = item.role;
    EXO_RETURN_NOT_OK(engine_->Claim(id, person));
    return engine_->ExecuteWorkItem(id, person);
  }

  /// Adds each activity's runs (its attempts) and dead paths to the
  /// result, block children included.
  Status Tally() {
    for (const std::string& id : engine_->instance_order()) {
      EXO_ASSIGN_OR_RETURN(const wfrt::ProcessInstance* inst,
                           engine_->FindInstance(id));
      const std::vector<wf::Activity>& activities =
          inst->definition->activities();
      for (uint32_t aid = 0; aid < activities.size(); ++aid) {
        ActivityStats& stats = result_->activities[activities[aid].name];
        stats.executions += static_cast<uint64_t>(inst->attempt(aid));
        if (inst->state(aid) == wf::ActivityState::kDead) ++stats.dead;
      }
    }
    return Status::OK();
  }

  const wf::DefinitionStore& store_;
  const SimConfig& config_;
  SimResult* result_;
  Rng rng_;
  wfrt::ProgramRegistry programs_;
  org::Directory staff_;
  ManualClock clock_;
  wfrt::EngineOptions options_;

  // One trial's state.
  std::optional<wfrt::Engine> engine_;
  /// Every attempt scheduled this trial, by scheduling order (seq).
  std::vector<Finish> finishes_;
  /// (virtual finish time, seq) of the pending ones, earliest on top; the
  /// seq breaks ties first-scheduled first.
  std::vector<std::pair<Micros, size_t>> due_;
  std::map<std::string, int> free_;  ///< role -> free people
  std::map<std::string, std::deque<org::WorkItemId>> waiting_;
  /// (instance, activity) -> time its crashed attempts took, charged to
  /// the re-run's finish.
  std::map<std::pair<std::string, std::string>, Micros> lost_;
  /// The first work item AssignPosted has not seen.
  org::WorkItemId next_item_ = 1;
};

}  // namespace

Result<SimResult> Simulate(const wf::DefinitionStore& store,
                           const std::string& process_name,
                           const SimConfig& config) {
  EXO_RETURN_NOT_OK(store.FindProcess(process_name).status());
  if (config.trials <= 0) {
    return Status::InvalidArgument("trials must be positive");
  }
  for (const auto& [name, profile] : config.profiles) {
    (void)name;
    double total = 0;
    for (const auto& [rc, p] : profile.rc_distribution) {
      (void)rc;
      if (p < 0) return Status::InvalidArgument("negative RC probability");
      total += p;
    }
    if (total < 0.999 || total > 1.001) {
      return Status::InvalidArgument(
          "RC distribution for " + name + " sums to " + std::to_string(total));
    }
  }

  SimResult result;
  result.trials = config.trials;
  Simulator simulator(store, config, &result);
  EXO_RETURN_NOT_OK(simulator.Setup());
  for (int t = 0; t < config.trials; ++t) {
    EXO_ASSIGN_OR_RETURN(Micros makespan, simulator.RunTrial(process_name));
    result.makespans.push_back(makespan);
  }
  std::sort(result.makespans.begin(), result.makespans.end());
  return result;
}

}  // namespace exotica::wfsim
