#include "wf/plan.h"

#include <algorithm>
#include <deque>
#include <map>
#include <string>
#include <utility>

#include "expr/compile.h"
#include "wf/process.h"

namespace exotica::wf {

namespace {

/// One container prototype per type name for the whole plan. The spin-up
/// image copies its prototypes from here, so same-typed containers share
/// one Layout (every spin-up bumps one hot refcount instead of forty cold
/// ones), and the condition compiler binds slots against the very same
/// layouts.
class PrototypeCache {
 public:
  explicit PrototypeCache(const data::TypeRegistry& types) : types_(types) {}

  Result<const data::Container*> Get(const std::string& type_name) {
    auto it = protos_.find(type_name);
    if (it == protos_.end()) {
      EXO_ASSIGN_OR_RETURN(data::Container proto,
                           data::Container::Create(types_, type_name));
      it = protos_.emplace(type_name, std::move(proto)).first;
    }
    return &it->second;
  }

 private:
  const data::TypeRegistry& types_;
  std::map<std::string, data::Container> protos_;
};

/// Compiles one condition against `shape`, appending the program to
/// `programs`. Returns the program index; `where` names the condition in
/// a compile error.
Result<int32_t> CompileCondition(
    const expr::Condition& cond, const data::Container& shape,
    const std::string& where, std::vector<expr::CompiledCondition>* programs) {
  Result<expr::CompiledCondition> prog =
      expr::ConditionCompiler::Compile(cond.root(), shape);
  if (!prog.ok()) return prog.status().WithContext(where);
  programs->push_back(std::move(prog).value());
  return static_cast<int32_t>(programs->size() - 1);
}

}  // namespace

Result<NavigationPlan> NavigationPlan::Compile(
    const ProcessDefinition& def, const data::TypeRegistry& types) {
  NavigationPlan plan;
  PrototypeCache protos(types);
  const std::vector<Activity>& acts = def.activities();
  const std::vector<ControlConnector>& control = def.control_connectors();
  const std::vector<DataConnector>& data = def.data_connectors();
  const uint32_t n = static_cast<uint32_t>(acts.size());

  plan.activities_.resize(n);
  for (uint32_t id = 0; id < n; ++id) {
    const Activity& a = acts[id];
    ActivityInfo& info = plan.activities_[id];
    info.manual = a.start_mode == StartMode::kManual;
    info.block = a.is_process();
    info.or_join = a.join == JoinKind::kOr;
    info.trivial_exit = a.exit_condition.is_trivial();
  }

  // Control connectors: resolve endpoints to ids and record each
  // connector's slot within its source/target adjacency list. Adjacency
  // lists are built in connector insertion order, matching the
  // definition's own indexes.
  plan.connectors_.resize(control.size());
  for (uint32_t c = 0; c < control.size(); ++c) {
    auto from = def.ActivityIndex(control[c].from);
    auto to = def.ActivityIndex(control[c].to);
    // Endpoints were validated at AddControlConnector time.
    ConnectorInfo& info = plan.connectors_[c];
    info.from = static_cast<uint32_t>(*from);
    info.to = static_cast<uint32_t>(*to);
    info.is_otherwise = control[c].is_otherwise;
    info.trivial = control[c].condition.is_trivial();
    ActivityInfo& src = plan.activities_[info.from];
    ActivityInfo& dst = plan.activities_[info.to];
    info.out_slot = static_cast<uint32_t>(src.out_control.size());
    info.in_slot = static_cast<uint32_t>(dst.in_control.size());
    src.out_control.push_back(c);
    dst.in_control.push_back(c);
  }
  for (ActivityInfo& info : plan.activities_) {
    info.join_fan_in = static_cast<uint32_t>(info.in_control.size());
  }

  // Container prototypes: the process containers, then one input/output
  // pair per activity.
  EXO_ASSIGN_OR_RETURN(const data::Container* in, protos.Get(def.input_type()));
  EXO_ASSIGN_OR_RETURN(const data::Container* out,
                       protos.Get(def.output_type()));
  plan.input_proto_ = *in;
  plan.output_proto_ = *out;
  plan.activity_inputs_.reserve(n);
  plan.activity_outputs_.reserve(n);
  for (const Activity& a : acts) {
    EXO_ASSIGN_OR_RETURN(in, protos.Get(a.input_type));
    EXO_ASSIGN_OR_RETURN(out, protos.Get(a.output_type));
    plan.activity_inputs_.push_back(*in);
    plan.activity_outputs_.push_back(*out);
  }

  // Lower every non-trivial condition to a slot-resolved VM program bound
  // to the prototype layouts. Exit conditions read the activity's own
  // output container; transition conditions read the *source* activity's
  // output container.
  for (uint32_t id = 0; id < n; ++id) {
    if (plan.activities_[id].trivial_exit) continue;
    EXO_ASSIGN_OR_RETURN(
        plan.activities_[id].exit_vm,
        CompileCondition(acts[id].exit_condition, plan.activity_outputs_[id],
                         "exit condition of activity " + acts[id].name,
                         &plan.vm_programs_));
  }
  for (uint32_t c = 0; c < control.size(); ++c) {
    ConnectorInfo& info = plan.connectors_[c];
    if (info.trivial || info.is_otherwise) continue;
    EXO_ASSIGN_OR_RETURN(
        info.cond_vm,
        CompileCondition(control[c].condition,
                         plan.activity_outputs_[info.from],
                         "transition condition " + control[c].from + " -> " +
                             control[c].to,
                         &plan.vm_programs_));
    plan.activities_[info.from].has_cond_out = true;
  }

  // Eval-slot offsets: connector evaluations live in two instance-wide
  // planes of the hot block; each activity owns the contiguous range
  // starting at its base.
  for (ActivityInfo& info : plan.activities_) {
    info.in_eval_base = plan.in_eval_total_;
    info.out_eval_base = plan.out_eval_total_;
    plan.in_eval_total_ += static_cast<uint32_t>(info.in_control.size());
    plan.out_eval_total_ += static_cast<uint32_t>(info.out_control.size());
  }
  plan.hot_ =
      HotLayout::Compute(n, plan.in_eval_total_, plan.out_eval_total_);

  // Preformat the hot block: all planes zero (kWaiting states, no
  // enqueued bits, attempt/failures 0) except the connector-eval planes,
  // which start at -1 (not yet evaluated).
  const HotLayout& hl = plan.hot_;
  plan.hot_image_.assign(hl.size, 0);
  std::fill_n(plan.hot_image_.begin() + hl.in_eval_base, plan.in_eval_total_,
              static_cast<uint8_t>(-1));
  std::fill_n(plan.hot_image_.begin() + hl.out_eval_base,
              plan.out_eval_total_, static_cast<uint8_t>(-1));

  // Data connectors: per-source fan-out lists plus resolved targets.
  plan.data_.resize(data.size());
  for (uint32_t d = 0; d < data.size(); ++d) {
    const DataConnector& dc = data[d];
    if (dc.from.is_activity()) {
      auto from = def.ActivityIndex(dc.from.activity);
      plan.activities_[*from].out_data.push_back(d);
    } else {
      plan.input_data_.push_back(d);
    }
    if (dc.to.is_activity()) {
      auto to = def.ActivityIndex(dc.to.activity);
      plan.data_[d].to = static_cast<uint32_t>(*to);
    } else {
      plan.data_[d].to = kProcessOutput;
    }
  }

  // Start set: no incoming control, declaration order.
  for (uint32_t id = 0; id < n; ++id) {
    if (plan.activities_[id].in_control.empty()) plan.start_.push_back(id);
  }

  // Topological order: Kahn's algorithm visiting ids in declaration order,
  // byte-identical to ProcessDefinition::TopologicalOrder on a DAG.
  std::vector<uint32_t> indegree(n, 0);
  for (const ConnectorInfo& c : plan.connectors_) ++indegree[c.to];
  std::deque<uint32_t> frontier;
  for (uint32_t id = 0; id < n; ++id) {
    if (indegree[id] == 0) frontier.push_back(id);
  }
  while (!frontier.empty()) {
    uint32_t id = frontier.front();
    frontier.pop_front();
    plan.topo_.push_back(id);
    for (uint32_t c : plan.activities_[id].out_control) {
      uint32_t m = plan.connectors_[c].to;
      if (--indegree[m] == 0) frontier.push_back(m);
    }
  }
  // Registration validates acyclicity before compiling, so every
  // activity lands in topo_.

  // Name-sorted id list: the iteration order of a name-keyed map.
  plan.by_name_.resize(n);
  for (uint32_t id = 0; id < n; ++id) plan.by_name_[id] = id;
  std::sort(plan.by_name_.begin(), plan.by_name_.end(),
            [&acts](uint32_t a, uint32_t b) {
              return acts[a].name < acts[b].name;
            });

  return plan;
}

}  // namespace exotica::wf
