#include "wf/process.h"

#include <algorithm>
#include <deque>
#include <set>

#include "wf/validate.h"

namespace exotica::wf {

const char* ActivityStateName(ActivityState s) {
  switch (s) {
    case ActivityState::kWaiting: return "waiting";
    case ActivityState::kReady: return "ready";
    case ActivityState::kRunning: return "running";
    case ActivityState::kFinished: return "finished";
    case ActivityState::kTerminated: return "terminated";
    case ActivityState::kDead: return "dead";
  }
  return "?";
}

Status ProcessDefinition::AddActivity(Activity activity) {
  if (activity.name.empty()) {
    return Status::InvalidArgument("activity name may not be empty");
  }
  if (index_.count(activity.name) > 0) {
    return Status::AlreadyExists("duplicate activity name: " + activity.name +
                                 " in process " + name_);
  }
  plan_.reset();
  index_[activity.name] = activities_.size();
  activities_.push_back(std::move(activity));
  return Status::OK();
}

Status ProcessDefinition::AddControlConnector(ControlConnector connector) {
  if (!HasActivity(connector.from)) {
    return Status::NotFound("control connector source not an activity: " +
                            connector.from);
  }
  if (!HasActivity(connector.to)) {
    return Status::NotFound("control connector target not an activity: " +
                            connector.to);
  }
  if (connector.from == connector.to) {
    return Status::ValidationError("self-loop control connector on " +
                                   connector.from);
  }
  for (size_t i : OutgoingControl(connector.from)) {
    if (control_[i].to == connector.to) {
      return Status::AlreadyExists("duplicate control connector " +
                                   connector.from + " -> " + connector.to);
    }
  }
  plan_.reset();
  control_out_[connector.from].push_back(control_.size());
  control_.push_back(std::move(connector));
  return Status::OK();
}

Status ProcessDefinition::AddDataConnector(DataConnector connector) {
  auto check = [&](const DataEndpoint& e) -> Status {
    if (e.is_activity() && !HasActivity(e.activity)) {
      return Status::NotFound("data connector endpoint not an activity: " +
                              e.activity);
    }
    return Status::OK();
  };
  EXO_RETURN_NOT_OK(check(connector.from));
  EXO_RETURN_NOT_OK(check(connector.to));
  if (connector.from.kind == DataEndpoint::Kind::kProcessOutput) {
    return Status::ValidationError(
        "data connector may not read from the process output container");
  }
  if (connector.to.kind == DataEndpoint::Kind::kProcessInput) {
    return Status::ValidationError(
        "data connector may not write to the process input container");
  }
  plan_.reset();
  data_.push_back(std::move(connector));
  return Status::OK();
}

Result<const Activity*> ProcessDefinition::FindActivity(
    const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("no activity " + name + " in process " + name_);
  }
  return &activities_[it->second];
}

Result<size_t> ProcessDefinition::ActivityIndex(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("no activity " + name + " in process " + name_);
  }
  return it->second;
}

std::vector<size_t> ProcessDefinition::OutgoingControl(
    const std::string& activity) const {
  auto it = control_out_.find(activity);
  return it == control_out_.end() ? std::vector<size_t>{} : it->second;
}

Result<std::vector<std::string>> ProcessDefinition::TopologicalOrder() const {
  std::map<std::string, int> indegree;
  for (const Activity& a : activities_) indegree[a.name] = 0;
  for (const ControlConnector& c : control_) ++indegree[c.to];

  // Kahn's algorithm, visiting in declaration order for determinism.
  std::deque<std::string> frontier;
  for (const Activity& a : activities_) {
    if (indegree[a.name] == 0) frontier.push_back(a.name);
  }
  std::vector<std::string> order;
  while (!frontier.empty()) {
    std::string n = frontier.front();
    frontier.pop_front();
    order.push_back(n);
    for (size_t i : OutgoingControl(n)) {
      const std::string& m = control_[i].to;
      if (--indegree[m] == 0) frontier.push_back(m);
    }
  }
  if (order.size() != activities_.size()) {
    return Status::ValidationError("process " + name_ +
                                   " has a cycle in its control flow");
  }
  return order;
}

bool ProcessDefinition::HasControlPath(const std::string& src,
                                       const std::string& dst) const {
  if (src == dst) return true;
  std::set<std::string> seen{src};
  std::deque<std::string> frontier{src};
  while (!frontier.empty()) {
    std::string n = frontier.front();
    frontier.pop_front();
    for (size_t i : OutgoingControl(n)) {
      const std::string& m = control_[i].to;
      if (m == dst) return true;
      if (seen.insert(m).second) frontier.push_back(m);
    }
  }
  return false;
}

Status DefinitionStore::DeclareProgram(ProgramDeclaration decl) {
  if (decl.name.empty()) {
    return Status::InvalidArgument("program name may not be empty");
  }
  if (programs_.count(decl.name) > 0) {
    return Status::AlreadyExists("program already declared: " + decl.name);
  }
  if (!types_.Has(decl.input_type)) {
    return Status::ValidationError("program " + decl.name +
                                   " references unknown input type " +
                                   decl.input_type);
  }
  if (!types_.Has(decl.output_type)) {
    return Status::ValidationError("program " + decl.name +
                                   " references unknown output type " +
                                   decl.output_type);
  }
  programs_.emplace(decl.name, std::move(decl));
  return Status::OK();
}

Result<const ProgramDeclaration*> DefinitionStore::FindProgram(
    const std::string& name) const {
  auto it = programs_.find(name);
  if (it == programs_.end()) {
    return Status::NotFound("program not declared: " + name);
  }
  return &it->second;
}

std::vector<std::string> DefinitionStore::ProgramNames() const {
  std::vector<std::string> out;
  out.reserve(programs_.size());
  for (const auto& [name, decl] : programs_) {
    (void)decl;
    out.push_back(name);
  }
  return out;
}

Status DefinitionStore::AddProcess(ProcessDefinition process) {
  auto it = processes_.find(process.name());
  if (it != processes_.end() && it->second.count(process.version()) > 0) {
    return Status::AlreadyExists("process already registered: " +
                                 process.name() + " version " +
                                 std::to_string(process.version()));
  }
  EXO_RETURN_NOT_OK_CTX(ValidateProcess(process, *this),
                        "validating process " + process.name());
  // Registration is the last single-threaded moment before engine threads
  // share the definition, and the only one with the TypeRegistry at hand:
  // the whole executable template is compiled here, once.
  Result<NavigationPlan> plan = NavigationPlan::Compile(process, types_);
  EXO_RETURN_NOT_OK_CTX(plan.status(), "compiling process " + process.name());
  process.plan_ =
      std::make_shared<const NavigationPlan>(std::move(plan).value());
  processes_[process.name()].emplace(process.version(), std::move(process));
  return Status::OK();
}

Result<const ProcessDefinition*> DefinitionStore::FindProcess(
    const std::string& name) const {
  auto it = processes_.find(name);
  if (it == processes_.end() || it->second.empty()) {
    return Status::NotFound("process not registered: " + name);
  }
  return &it->second.rbegin()->second;  // highest version
}

Result<const ProcessDefinition*> DefinitionStore::FindProcessVersion(
    const std::string& name, int version) const {
  auto it = processes_.find(name);
  if (it == processes_.end()) {
    return Status::NotFound("process not registered: " + name);
  }
  auto vit = it->second.find(version);
  if (vit == it->second.end()) {
    return Status::NotFound("process " + name + " has no version " +
                            std::to_string(version));
  }
  return &vit->second;
}

std::vector<int> DefinitionStore::VersionsOf(const std::string& name) const {
  std::vector<int> out;
  auto it = processes_.find(name);
  if (it == processes_.end()) return out;
  for (const auto& [version, p] : it->second) {
    (void)p;
    out.push_back(version);
  }
  return out;
}

std::vector<std::string> DefinitionStore::ProcessNames() const {
  std::vector<std::string> out;
  out.reserve(processes_.size());
  for (const auto& [name, versions] : processes_) {
    (void)versions;
    out.push_back(name);
  }
  return out;
}

Status DefinitionStore::RemoveProcess(const std::string& name) {
  if (processes_.erase(name) == 0) {
    return Status::NotFound("process not registered: " + name);
  }
  return Status::OK();
}

}  // namespace exotica::wf
