#include "wfrt/engine.h"

#include <algorithm>
#include <optional>

#include "common/strings.h"
#include "expr/eval.h"

namespace exotica::wfrt {

using wf::ActivityState;

namespace {
// Name of activity `aid` — journal records and audit events still speak
// names; navigation itself stays on ids.
inline const std::string& NameOf(const ProcessInstance* inst, uint32_t aid) {
  return inst->definition->activities()[aid].name;
}

inline const wf::Activity& DefOf(const ProcessInstance* inst, uint32_t aid) {
  return inst->definition->activities()[aid];
}

// FNV-1a over a string, folded into `h` — the backoff-jitter key. A plain
// hash (not an Rng stream) keeps the decision a pure function of
// (seed, instance, activity, attempt), stable across recovery and
// independent of how many other instances retried first.
inline uint64_t HashMix(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline uint64_t HashMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}
}  // namespace

bool RetryPolicy::DefaultIsPermanent(const Status& error) {
  return error.IsInvalidArgument() || error.IsUnsupported() ||
         error.IsValidationError();
}

Engine::Engine(const wf::DefinitionStore* definitions, ProgramRegistry* programs,
               EngineOptions options)
    : definitions_(definitions),
      programs_(programs),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SystemClock::Default()) {
  audit_.set_max_events(options_.max_audit_events);
}

Status Engine::AttachJournal(wfjournal::Journal* journal) {
  if (!instances_.empty()) {
    return Status::FailedPrecondition(
        "journal must be attached before any process starts");
  }
  journal_ = journal;
  return Status::OK();
}

Status Engine::AttachOrganization(const org::Directory* directory) {
  directory_ = directory;
  worklists_ = std::make_unique<org::WorklistService>(directory, clock_);
  return Status::OK();
}

Status Engine::JournalAppend(wfjournal::EventType type,
                             const std::string& instance,
                             const std::string& activity,
                             const std::string& to, bool flag,
                             std::string payload, std::string extra) {
  if (journal_ == nullptr) return Status::OK();
  wfjournal::Record r;
  r.type = type;
  r.instance = instance;
  r.activity = activity;
  r.to = to;
  r.flag = flag;
  r.payload = std::move(payload);
  r.extra = std::move(extra);
  EXO_RETURN_NOT_OK(journal_->Append(std::move(r)));
  ++records_since_snapshot_;
  return Status::OK();
}

Status Engine::FlushJournal() {
  if (journal_ == nullptr) return Status::OK();
  return journal_->Flush();
}

void Engine::Audit(AuditKind kind, const std::string& instance,
                   const std::string& activity, std::string detail) {
  if (!options_.audit_enabled) return;
  AuditEvent e;
  e.at = clock_->NowMicros();
  e.kind = kind;
  e.instance = instance;
  e.activity = activity;
  e.detail = std::move(detail);
  if (observer_) observer_(e);
  audit_.Add(std::move(e));
}

std::string Engine::NewInstanceId() {
  return options_.instance_id_prefix + "wf-" + std::to_string(next_instance_++);
}

Result<ProcessInstance*> Engine::MutableInstance(const std::string& id) {
  auto it = instance_index_.find(id);
  if (it == instance_index_.end()) {
    return Status::NotFound("no such process instance: " + id);
  }
  return &instances_[it->second];
}

Result<const ProcessInstance*> Engine::FindInstance(const std::string& id) const {
  auto it = instance_index_.find(id);
  if (it == instance_index_.end()) {
    return Status::NotFound("no such process instance: " + id);
  }
  return &instances_[it->second];
}

bool Engine::IsFinished(const std::string& id) const {
  auto it = instance_index_.find(id);
  return it != instance_index_.end() && instances_[it->second].finished;
}

bool Engine::IsCancelled(const std::string& id) const {
  auto it = instance_index_.find(id);
  return it != instance_index_.end() && instances_[it->second].cancelled;
}

bool Engine::IsSuspended(const std::string& id) const {
  auto it = instance_index_.find(id);
  return it != instance_index_.end() && instances_[it->second].suspended;
}

bool Engine::IsFailed(const std::string& id) const {
  auto it = instance_index_.find(id);
  return it != instance_index_.end() && instances_[it->second].failed;
}

Result<data::Container> Engine::OutputOf(const std::string& id) const {
  EXO_ASSIGN_OR_RETURN(const ProcessInstance* inst, FindInstance(id));
  if (inst->failed) {
    return Status::FailedPrecondition("instance " + id + " is quarantined: " +
                                      inst->failure_reason);
  }
  if (!inst->finished) {
    return Status::FailedPrecondition("instance " + id + " is not finished");
  }
  return inst->output;
}

Result<wf::ActivityState> Engine::StateOf(const std::string& id,
                                          const std::string& activity) const {
  EXO_ASSIGN_OR_RETURN(const ProcessInstance* inst, FindInstance(id));
  Result<size_t> aid = inst->definition->ActivityIndex(activity);
  if (!aid.ok()) {
    return Status::NotFound("no activity " + activity + " in instance " + id);
  }
  return inst->state(static_cast<uint32_t>(*aid));
}

Result<data::Container> Engine::NewContainer(const std::string& type_name) {
  auto it = container_protos_.find(type_name);
  if (it == container_protos_.end()) {
    EXO_ASSIGN_OR_RETURN(
        data::Container proto,
        data::Container::Create(definitions_->types(), type_name));
    it = container_protos_.emplace(type_name, std::move(proto)).first;
  }
  return it->second;
}

// --- instance creation ------------------------------------------------------

Result<std::string> Engine::StartProcess(const std::string& process_name,
                                         const data::Container* input) {
  EXO_ASSIGN_OR_RETURN(const wf::ProcessDefinition* def,
                       definitions_->FindProcess(process_name));
  Result<std::string> id = CreateInstance(def, input, "", "");
  EXO_RETURN_NOT_OK(FlushJournal());
  return id;
}

Result<std::string> Engine::CreateInstance(const wf::ProcessDefinition* def,
                                           const data::Container* input,
                                           const std::string& parent_instance,
                                           const std::string& parent_activity) {
  std::string id = NewInstanceId();

  ProcessInstance inst;
  inst.id = id;
  inst.definition = def;
  inst.plan = &def->plan();
  inst.parent_instance = parent_instance;
  inst.parent_activity = parent_activity;
  EXO_ASSIGN_OR_RETURN(inst.input, NewContainer(def->input_type()));
  if (input != nullptr) {
    if (input->type_name() != def->input_type()) {
      return Status::InvalidArgument(
          "input container type " + input->type_name() +
          " does not match process input type " + def->input_type());
    }
    inst.input = *input;
  }
  EXO_ASSIGN_OR_RETURN(inst.output, NewContainer(def->output_type()));

  // The payload pins the template version so recovery replays against the
  // exact definition this instance started with, even if newer versions
  // registered since.
  if (journal_ != nullptr) {
    EXO_RETURN_NOT_OK(JournalAppend(
        wfjournal::EventType::kInstanceStart, id, parent_activity,
        parent_instance, /*flag=*/false,
        "v" + std::to_string(def->version()) + ":" + def->name(),
        inst.input.Serialize()));
  }

  EXO_RETURN_NOT_OK(InitializeRuntimes(&inst));
  ProcessInstance* p = CommitInstance(std::move(inst));
  ++stats_.instances_started;
  Audit(AuditKind::kInstanceStarted, id, "", def->name());

  if (!parent_instance.empty()) {
    EXO_ASSIGN_OR_RETURN(ProcessInstance* parent,
                         MutableInstance(parent_instance));
    EXO_ASSIGN_OR_RETURN(size_t paid,
                         parent->definition->ActivityIndex(parent_activity));
    parent->child_instance(static_cast<uint32_t>(paid)) = id;
  }

  EXO_RETURN_NOT_OK(ReadyStartActivities(p));
  return id;
}

Result<const InstanceArena*> Engine::ArenaFor(const wf::ProcessDefinition* def) {
  auto shared = shared_arenas_.find(def);
  if (shared != shared_arenas_.end()) return shared->second;
  auto it = arenas_.find(def);
  if (it == arenas_.end()) {
    EXO_ASSIGN_OR_RETURN(InstanceArena arena,
                         InstanceArena::Build(*def, definitions_->types()));
    it = arenas_.emplace(def, std::move(arena)).first;
  }
  return &it->second;
}

Status Engine::InitializeRuntimes(ProcessInstance* inst) {
  // One copy of the arena's preformatted hot block plus a
  // default-constructed cold sidecar — no per-activity container copies at
  // spin-up; cold containers materialize on first touch.
  EXO_ASSIGN_OR_RETURN(const InstanceArena* arena, ArenaFor(inst->definition));
  const wf::NavigationPlan& plan = *inst->plan;
  inst->arena = arena;
  inst->hl = plan.hot();
  inst->hot = arena->hot_image();
  inst->cold.resize(plan.activity_count());
  // Process-input data connectors materialize target inputs immediately.
  for (uint32_t d : plan.input_data()) {
    const wf::DataConnector& dc = inst->definition->data_connectors()[d];
    uint32_t to = plan.data_target(d).to;
    data::Container* target;
    if (to == wf::NavigationPlan::kProcessOutput) {
      target = &inst->output;
    } else {
      MaterializeActivityInput(inst, to);
      target = &inst->activity_input(to);
    }
    EXO_RETURN_NOT_OK(dc.mapping.Apply(inst->input, target));
  }
  return Status::OK();
}

void Engine::MaterializeActivityInput(ProcessInstance* inst, uint32_t aid) {
  data::Container& c = inst->cold[aid].input;
  if (c.type_name().empty()) c = inst->arena->activity_input(aid);
}

void Engine::MaterializeActivityOutput(ProcessInstance* inst, uint32_t aid) {
  data::Container& c = inst->cold[aid].output;
  if (c.type_name().empty()) c = inst->arena->activity_output(aid);
}

Status Engine::ReadyStartActivities(ProcessInstance* inst) {
  for (uint32_t aid : inst->plan->start_activities()) {
    EXO_RETURN_NOT_OK(MakeReady(inst, aid));
  }
  return Status::OK();
}

// --- readiness and the run queue ---------------------------------------------

Status Engine::PostWorkItem(ProcessInstance* inst, uint32_t aid,
                            const char* no_worklists_error) {
  const wf::Activity& def = DefOf(inst, aid);
  if (worklists_ == nullptr) {
    return Status::FailedPrecondition("manual activity " + def.name +
                                      no_worklists_error);
  }
  EXO_ASSIGN_OR_RETURN(
      org::WorkItemId item,
      worklists_->Post(inst->id, def.name, def.role, def.notify_after_micros,
                       def.notify_role));
  inst->work_item(aid) = item;
  Audit(AuditKind::kWorkItemPosted, inst->id, def.name, std::to_string(item));
  return Status::OK();
}

Status Engine::MakeReady(ProcessInstance* inst, uint32_t aid) {
  inst->SetState(aid, ActivityState::kReady);
  const std::string& name = NameOf(inst, aid);
  if (journal_ != nullptr) {
    EXO_RETURN_NOT_OK(
        JournalAppend(wfjournal::EventType::kActivityReady, inst->id, name));
  }
  Audit(AuditKind::kActivityReady, inst->id, name);

  if (inst->plan->activity(aid).manual) {
    return PostWorkItem(inst, aid,
                        " requires an attached organization "
                        "(AttachOrganization)");
  }
  Enqueue(inst, aid);
  return Status::OK();
}

void Engine::Enqueue(ProcessInstance* inst, uint32_t aid) {
  uint8_t& flag = inst->enqueued_flag(aid);
  if (flag) return;
  flag = 1;
  ready_queue_.emplace_back(inst->index, aid);
}

Status Engine::Drain(int limit) {
  int steps = 0;
  while (!ready_queue_.empty()) {
    if (limit > 0 && steps >= limit) break;
    ++steps;
    auto [index, aid] = ready_queue_.front();
    ready_queue_.pop_front();

    ProcessInstance* inst = &instances_[index];
    inst->enqueued_flag(aid) = 0;
    if (inst->suspended) continue;  // parked; ResumeSuspended re-enqueues
    if (inst->failed) continue;     // quarantined
    if (inst->detached) continue;   // migrated away; slot is a husk
    if (inst->state(aid) != ActivityState::kReady) {
      continue;  // stale entry
    }
    EXO_RETURN_NOT_OK(StartExecution(inst, aid, ""));
  }
  return Status::OK();
}

Status Engine::Run() {
  Status st = Drain(0);
  Status fs = FlushJournal();
  if (!st.ok()) return st;
  EXO_RETURN_NOT_OK(fs);
  return MaybeCheckpoint();
}

Status Engine::RunSlice(int max_steps, bool* quiescent) {
  Status st = Drain(max_steps);
  Status fs = FlushJournal();
  if (quiescent != nullptr) *quiescent = ready_queue_.empty();
  if (!st.ok()) return st;
  EXO_RETURN_NOT_OK(fs);
  return MaybeCheckpoint();
}

Result<std::string> Engine::RunToCompletion(const std::string& process_name,
                                            const data::Container* input) {
  EXO_ASSIGN_OR_RETURN(std::string id, StartProcess(process_name, input));
  EXO_RETURN_NOT_OK(Run());
  if (IsFailed(id)) {
    EXO_ASSIGN_OR_RETURN(const ProcessInstance* inst, FindInstance(id));
    return Status::FailedPrecondition("instance " + id + " is quarantined: " +
                                      inst->failure_reason);
  }
  if (!IsFinished(id)) {
    return Status::FailedPrecondition(
        "instance " + id +
        " stalled (manual work pending?); use Run/ExecuteWorkItem");
  }
  return id;
}

// --- execution ----------------------------------------------------------------

Status Engine::StartExecution(ProcessInstance* inst, uint32_t aid,
                              const std::string& person) {
  const wf::Activity& def = DefOf(inst, aid);

  const int32_t attempt = ++inst->attempt(aid);
  inst->SetState(aid, ActivityState::kRunning);
  MaterializeActivityInput(inst, aid);
  // Fresh output container per attempt: a half-written image from a failed
  // attempt must not leak into the next one. One copy of the arena's
  // preformatted prototype instead of a type-registry walk.
  inst->activity_output(aid) = inst->arena->activity_output(aid);
  if (journal_ != nullptr) {
    EXO_RETURN_NOT_OK(JournalAppend(wfjournal::EventType::kActivityStarted,
                                    inst->id, def.name, "", false,
                                    std::to_string(attempt)));
  }
  Audit(AuditKind::kActivityStarted, inst->id, def.name,
        "attempt=" + std::to_string(attempt));
  ++stats_.activities_executed;

  if (def.is_process()) {
    // Block: spawn a child instance fed from this activity's input.
    EXO_ASSIGN_OR_RETURN(const wf::ProcessDefinition* sub,
                         definitions_->FindProcess(def.subprocess));
    EXO_ASSIGN_OR_RETURN(
        std::string child_id,
        CreateInstance(sub, &inst->activity_input(aid), inst->id, def.name));
    (void)child_id;  // continuation happens when the child finishes
    return Status::OK();
  }

  // Program activity.
  EXO_ASSIGN_OR_RETURN(const ProgramFn* fn, programs_->Find(def.program));
  ProgramContext ctx;
  ctx.instance_id = inst->id;
  ctx.activity = def.name;
  ctx.attempt = attempt;
  ctx.person = person;
  // Every 8th execution is wall-clock sampled into the activity-cost EWMA
  // (mean_activity_cost_micros) so the fleet's cost-aware steal victim
  // picking has a load signal without two clock reads per dispatch.
  const bool sample_cost = (cost_sample_tick_++ & 7) == 0;
  const Micros cost_t0 = sample_cost ? clock_->NowMicros() : 0;
  Status st = (*fn)(inst->activity_input(aid), &inst->activity_output(aid),
                    ctx);
  if (sample_cost) {
    const double cost = static_cast<double>(clock_->NowMicros() - cost_t0);
    cost_ewma_micros_ = cost_ewma_micros_ == 0.0
                            ? cost
                            : cost_ewma_micros_ +
                                  0.2 * (cost - cost_ewma_micros_);
  }
  if (st.IsPending()) {
    // Asynchronous external work (§3.3: activities "can be of any type
    // ... as long as there is a way to report their progress"). The
    // activity stays running until CompleteAsync reports the outcome; a
    // crash meanwhile re-runs it from the beginning, the same
    // at-least-once contract as everything else.
    Audit(AuditKind::kActivityPending, inst->id, def.name, st.message());
    return Status::OK();
  }
  if (!st.ok()) {
    return HandleProgramFailure(inst, aid, st);
  }

  inst->failures(aid) = 0;
  if (journal_ != nullptr) {
    EXO_RETURN_NOT_OK(JournalAppend(wfjournal::EventType::kActivityFinished,
                                    inst->id, def.name, "", false,
                                    inst->activity_output(aid).Serialize()));
  }
  Audit(AuditKind::kActivityFinished, inst->id, def.name);
  return HandleFinished(inst, aid);
}

const RetryPolicy& Engine::PolicyFor(const std::string& activity) const {
  auto it = options_.activity_retry.find(activity);
  return it == options_.activity_retry.end() ? options_.retry : it->second;
}

Micros Engine::BackoffDelay(const RetryPolicy& policy, int failures,
                            const std::string& instance,
                            const std::string& activity) const {
  if (policy.initial_backoff_micros <= 0) return 0;
  double delay = static_cast<double>(policy.initial_backoff_micros);
  double cap = policy.max_backoff_micros > 0
                   ? static_cast<double>(policy.max_backoff_micros)
                   : 0.0;
  for (int k = 1; k < failures; ++k) {
    delay *= policy.backoff_multiplier;
    if (cap > 0 && delay >= cap) {
      delay = cap;
      break;
    }
  }
  if (cap > 0 && delay > cap) delay = cap;
  if (policy.jitter > 0) {
    uint64_t h = HashMix(0xcbf29ce484222325ull, options_.retry_jitter_seed);
    h = HashMix(h, instance);
    h = HashMix(h, activity);
    h = HashMix(h, static_cast<uint64_t>(failures));
    double u = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    delay *= 1.0 + policy.jitter * (2.0 * u - 1.0);
  }
  return static_cast<Micros>(delay);
}

Status Engine::HandleProgramFailure(ProcessInstance* inst, uint32_t aid,
                                    const Status& error) {
  const std::string& name = NameOf(inst, aid);
  const int32_t failures = ++inst->failures(aid);
  ++stats_.program_failures;
  Audit(AuditKind::kProgramFailure, inst->id, name, error.ToString());

  const RetryPolicy& policy = PolicyFor(name);
  bool permanent = policy.is_permanent
                       ? policy.is_permanent(error)
                       : RetryPolicy::DefaultIsPermanent(error);
  if (permanent) {
    ++stats_.permanent_failures;
    Audit(AuditKind::kPermanentFailure, inst->id, name, error.ToString());
    return QuarantineInstance(
        inst, StrFormat("activity %s in %s: permanent failure: %s",
                        name.c_str(), inst->id.c_str(),
                        error.ToString().c_str()));
  }
  if (policy.max_attempts > 0 && failures >= policy.max_attempts) {
    return QuarantineInstance(
        inst, StrFormat("activity %s in %s failed %d times; last error: %s",
                        name.c_str(), inst->id.c_str(), failures,
                        error.ToString().c_str()));
  }
  // The retry budget lives on the top-level instance, so block children
  // draw from one shared allowance.
  ProcessInstance* root = inst;
  while (root->is_child()) {
    EXO_ASSIGN_OR_RETURN(root, MutableInstance(root->parent_instance));
  }
  ++root->retries_used;
  if (options_.retry.instance_retry_budget > 0 &&
      root->retries_used > options_.retry.instance_retry_budget) {
    return QuarantineInstance(
        inst,
        StrFormat("instance %s exhausted its retry budget of %d; "
                  "last failing activity %s: %s",
                  root->id.c_str(), options_.retry.instance_retry_budget,
                  name.c_str(), error.ToString().c_str()));
  }
  ++stats_.retries;
  Micros delay = BackoffDelay(policy, failures, inst->id, name);
  if (delay > 0) {
    ++stats_.backoff_waits;
    stats_.backoff_wait_micros += static_cast<uint64_t>(delay);
    Audit(AuditKind::kRetryBackoff, inst->id, name, std::to_string(delay));
    if (options_.on_backoff) options_.on_backoff(delay);
  }
  // Program crash: reschedule from the beginning (paper §3.3).
  return Reschedule(inst, aid, "program-failure");
}

Status Engine::QuarantineInstance(ProcessInstance* inst, std::string reason) {
  ProcessInstance* root = inst;
  while (root->is_child()) {
    EXO_ASSIGN_OR_RETURN(root, MutableInstance(root->parent_instance));
  }
  EXO_RETURN_NOT_OK(JournalAppend(wfjournal::EventType::kInstanceFailed,
                                  root->id, "", "", false, reason));
  return ApplyFailed(root, reason);
}

Status Engine::ApplyFailed(ProcessInstance* inst, const std::string& reason) {
  // Children first, then the same name-ordered settle sweep as ApplyCancel;
  // the instance keeps its journaled data state (a saga's compensation
  // process stays runnable against the committed State image), it just
  // stops navigating.
  for (uint32_t aid : inst->plan->ids_by_name()) {
    if (inst->state(aid) == ActivityState::kRunning &&
        !inst->child_instance(aid).empty()) {
      auto child = MutableInstance(inst->child_instance(aid));
      if (child.ok() && !(*child)->finished && !(*child)->failed) {
        EXO_RETURN_NOT_OK(ApplyFailed(*child, reason));
      }
    }
  }
  for (uint32_t aid : inst->plan->ids_by_name()) {
    ActivityState s = inst->state(aid);
    if (s == ActivityState::kTerminated || s == ActivityState::kDead) {
      continue;
    }
    const std::string& name = NameOf(inst, aid);
    std::optional<org::WorkItemId>& item = inst->work_item(aid);
    if (item.has_value() && worklists_ != nullptr) {
      (void)worklists_->Cancel(*item);
      Audit(AuditKind::kWorkItemCancelled, inst->id, name,
            std::to_string(*item));
      item.reset();
    }
    inst->SetState(aid, ActivityState::kDead);
    Audit(AuditKind::kActivityDead, inst->id, name, "failed");
  }
  inst->failed = true;
  inst->failure_reason = reason;
  inst->suspended = false;
  if (!inst->is_child()) {
    ++stats_.instances_failed;
    failed_.push_back({inst->id, reason});
  }
  Audit(AuditKind::kInstanceFailed, inst->id, "", reason);
  return Status::OK();
}

Status Engine::HandleFinished(ProcessInstance* inst, uint32_t aid) {
  const wf::Activity& def = DefOf(inst, aid);
  inst->SetState(aid, ActivityState::kFinished);

  bool exit_ok;
  const wf::NavigationPlan::ActivityInfo& info = inst->plan->activity(aid);
  if (info.trivial_exit) {
    exit_ok = true;  // always-true exit condition: skip the resolver
  } else {
    const data::Container& out = inst->activity_output(aid);
    Result<bool> exit_result = [&]() -> Result<bool> {
      if (info.exit_vm >= 0) {
        return EvalVmCondition(inst, info.exit_vm, out);
      }
      ++stats_.tree_condition_evals;
      expr::ContainerResolver resolver(out);
      return def.exit_condition.Evaluate(resolver);
    }();
    if (!exit_result.ok()) {
      return exit_result.status().WithContext("exit condition of " + def.name +
                                              " in " + inst->id);
    }
    exit_ok = exit_result.value();
  }
  if (!exit_ok) {
    const int32_t attempt = inst->attempt(aid);
    if (options_.max_exit_retries > 0 &&
        attempt >= options_.max_exit_retries) {
      return Status::FailedPrecondition(StrFormat(
          "activity %s in %s: exit condition still false after %d attempts",
          def.name.c_str(), inst->id.c_str(), attempt));
    }
    return Reschedule(inst, aid, "exit-condition");
  }
  return Terminate(inst, aid);
}

Status Engine::Reschedule(ProcessInstance* inst, uint32_t aid,
                          const std::string& reason) {
  inst->SetState(aid, ActivityState::kReady);
  ++stats_.reschedules;
  const std::string& name = NameOf(inst, aid);
  EXO_RETURN_NOT_OK(JournalAppend(wfjournal::EventType::kActivityRescheduled,
                                  inst->id, name, "", false, reason));
  Audit(AuditKind::kActivityRescheduled, inst->id, name, reason);

  if (inst->plan->activity(aid).manual) {
    return PostWorkItem(inst, aid, " rescheduled without worklists");
  }
  Enqueue(inst, aid);
  return Status::OK();
}

Status Engine::Terminate(ProcessInstance* inst, uint32_t aid) {
  inst->SetState(aid, ActivityState::kTerminated);
  const std::string& name = NameOf(inst, aid);
  if (journal_ != nullptr) {
    EXO_RETURN_NOT_OK(JournalAppend(wfjournal::EventType::kActivityTerminated,
                                    inst->id, name));
  }
  Audit(AuditKind::kActivityTerminated, inst->id, name);
  EXO_RETURN_NOT_OK(PushData(inst, aid));
  EXO_RETURN_NOT_OK(EvaluateOutgoing(inst, aid, /*all_false=*/false));
  return CheckInstanceCompletion(inst);
}

Status Engine::MarkDead(ProcessInstance* inst, uint32_t aid) {
  inst->SetState(aid, ActivityState::kDead);
  ++stats_.dead_path_terminations;
  const std::string& name = NameOf(inst, aid);
  if (journal_ != nullptr) {
    EXO_RETURN_NOT_OK(
        JournalAppend(wfjournal::EventType::kActivityDead, inst->id, name));
  }
  Audit(AuditKind::kActivityDead, inst->id, name);

  std::optional<org::WorkItemId>& item = inst->work_item(aid);
  if (item.has_value() && worklists_ != nullptr) {
    // Best effort: the item may already be done (it should not be, since
    // the activity was still waiting, but recovery can race).
    (void)worklists_->Cancel(*item);
    Audit(AuditKind::kWorkItemCancelled, inst->id, name,
          std::to_string(*item));
    item.reset();
  }
  EXO_RETURN_NOT_OK(EvaluateOutgoing(inst, aid, /*all_false=*/true));
  return CheckInstanceCompletion(inst);
}

Result<bool> Engine::EvalVmCondition(const ProcessInstance* inst,
                                     int32_t index,
                                     const data::Container& input) {
  ++stats_.vm_condition_evals;
  return inst->plan->vm_program(index).EvaluateBool(input);
}

Status Engine::EvaluateOutgoing(ProcessInstance* inst, uint32_t aid,
                                bool all_false) {
  const wf::NavigationPlan& plan = *inst->plan;
  const wf::NavigationPlan::ActivityInfo& info = plan.activity(aid);
  const std::vector<wf::ControlConnector>& connectors =
      inst->definition->control_connectors();

  // A conditioned sweep reads the source output container (cold
  // containers materialize on first touch; dead-path sweeps never read
  // it).
  if (!all_false && info.has_cond_out) MaterializeActivityOutput(inst, aid);
  const data::Container& out = inst->activity_output(aid);

  // Every outgoing connector reads the same source output container, so
  // one resolver serves the whole sweep — but only tree-walked conditions
  // consult it, so the plan's resolver bit lets trivial/VM-only sweeps
  // (and all-false dead-path sweeps) skip constructing it entirely.
  std::optional<expr::ContainerResolver> resolver;
  if (!all_false && info.needs_resolver) resolver.emplace(out);

  // Fresh evaluations are delivered only after every sibling connector is
  // journaled, so a successor's join never fires on a partial picture.
  std::vector<std::pair<uint32_t, bool>> fresh;
  fresh.swap(fresh_scratch_);
  fresh.clear();

  // Journals, audits, and queues one fresh evaluation.
  auto record = [&](uint32_t slot, uint32_t cidx, bool value) -> Status {
    inst->out_eval_abs(info.out_eval_base + slot) = value ? 1 : 0;
    ++stats_.connectors_evaluated;
    const wf::ControlConnector& c = connectors[cidx];
    if (journal_ != nullptr) {
      EXO_RETURN_NOT_OK(JournalAppend(wfjournal::EventType::kConnectorEval,
                                      inst->id, c.from, c.to, value));
    }
    Audit(value ? AuditKind::kConnectorTrue : AuditKind::kConnectorFalse,
          inst->id, c.from, c.to);
    fresh.emplace_back(cidx, value);
    return Status::OK();
  };

  // Non-otherwise connectors first.
  bool any_true = false;
  for (uint32_t slot = 0; slot < info.out_control.size(); ++slot) {
    uint32_t cidx = info.out_control[slot];
    const wf::NavigationPlan::ConnectorInfo& ci = plan.connector(cidx);
    if (ci.is_otherwise) continue;
    const int8_t prior = inst->out_eval_abs(info.out_eval_base + slot);
    if (prior >= 0) {
      any_true = any_true || prior != 0;
      continue;
    }
    bool value;
    if (all_false) {
      value = false;
    } else if (ci.trivial) {
      value = true;  // unconditioned connector: no resolver needed
    } else {
      const wf::ControlConnector& c = connectors[cidx];
      Result<bool> r = [&]() -> Result<bool> {
        if (ci.cond_vm >= 0) return EvalVmCondition(inst, ci.cond_vm, out);
        ++stats_.tree_condition_evals;
        return c.condition.Evaluate(*resolver);
      }();
      if (r.ok()) {
        value = r.value();
      } else if (options_.condition_error_is_false) {
        value = false;
      } else {
        return r.status().WithContext("transition condition " + c.from +
                                      " -> " + c.to + " in " + inst->id);
      }
    }
    EXO_RETURN_NOT_OK(record(slot, cidx, value));
    any_true = any_true || value;
  }

  // Otherwise connectors fire iff all conditioned siblings were false.
  // They do not feed back into any_true, so sibling otherwise connectors
  // all decide from the same picture.
  for (uint32_t slot = 0; slot < info.out_control.size(); ++slot) {
    uint32_t cidx = info.out_control[slot];
    if (!plan.connector(cidx).is_otherwise) continue;
    if (inst->out_eval_abs(info.out_eval_base + slot) >= 0) continue;
    EXO_RETURN_NOT_OK(record(slot, cidx, all_false ? false : !any_true));
  }

  for (auto [cidx, value] : fresh) {
    EXO_RETURN_NOT_OK(DeliverSignal(inst, cidx, value));
  }
  fresh.clear();
  fresh_scratch_.swap(fresh);
  return Status::OK();
}

Status Engine::DeliverSignal(ProcessInstance* inst, uint32_t connector_index,
                             bool value) {
  const wf::NavigationPlan::ConnectorInfo& ci =
      inst->plan->connector(connector_index);
  inst->in_eval(ci.to, ci.in_slot) = value ? 1 : 0;
  if (inst->state(ci.to) != ActivityState::kWaiting) return Status::OK();
  return ApplyJoin(inst, ci.to);
}

Status Engine::ApplyJoin(ProcessInstance* inst, uint32_t aid) {
  if (inst->state(aid) != ActivityState::kWaiting) return Status::OK();
  const wf::NavigationPlan::ActivityInfo& info = inst->plan->activity(aid);
  if (info.join_fan_in == 0) return Status::OK();

  // The start condition is decided only once every incoming connector has
  // been evaluated (terminated sources evaluate their conditions; dead
  // sources evaluate to false via dead path elimination). Deciding early
  // would let an OR-joined activity start before its siblings settle,
  // which breaks the reverse-order compensation pattern of the paper's
  // Figure 2.
  uint32_t evaluated = 0, trues = 0;
  for (uint32_t s = 0; s < info.join_fan_in; ++s) {
    int8_t v = inst->in_eval_abs(info.in_eval_base + s);
    if (v < 0) continue;
    ++evaluated;
    trues += static_cast<uint32_t>(v);
  }
  if (evaluated < info.join_fan_in) return Status::OK();

  bool start = info.or_join ? trues > 0 : trues == info.join_fan_in;
  return start ? MakeReady(inst, aid) : MarkDead(inst, aid);
}

Status Engine::PushData(ProcessInstance* inst, uint32_t aid) {
  const wf::NavigationPlan& plan = *inst->plan;
  if (!plan.activity(aid).out_data.empty()) {
    MaterializeActivityOutput(inst, aid);
  }
  for (uint32_t d : plan.activity(aid).out_data) {
    const wf::DataConnector& dc = inst->definition->data_connectors()[d];
    uint32_t to = plan.data_target(d).to;
    data::Container* target;
    if (to == wf::NavigationPlan::kProcessOutput) {
      target = &inst->output;
    } else {
      MaterializeActivityInput(inst, to);
      target = &inst->activity_input(to);
    }
    EXO_RETURN_NOT_OK(dc.mapping.Apply(inst->activity_output(aid), target));
  }
  return Status::OK();
}

Status Engine::CheckInstanceCompletion(ProcessInstance* inst) {
  if (inst->finished || inst->failed || !inst->AllSettled()) {
    return Status::OK();
  }
  inst->finished = true;
  ++stats_.instances_finished;
  if (journal_ != nullptr) {
    EXO_RETURN_NOT_OK(JournalAppend(wfjournal::EventType::kInstanceFinished,
                                    inst->id, "", "", false,
                                    inst->output.Serialize()));
  }
  Audit(AuditKind::kInstanceFinished, inst->id);
  if (inst->is_child()) return ContinueParent(inst);
  return Status::OK();
}

Status Engine::ContinueParent(ProcessInstance* child) {
  EXO_ASSIGN_OR_RETURN(ProcessInstance* parent,
                       MutableInstance(child->parent_instance));
  EXO_ASSIGN_OR_RETURN(
      size_t aid, parent->definition->ActivityIndex(child->parent_activity));
  if (parent->state(static_cast<uint32_t>(aid)) != ActivityState::kRunning) {
    return Status::OK();  // already done
  }
  data::Container& out = parent->activity_output(static_cast<uint32_t>(aid));
  out = child->output;
  if (journal_ != nullptr) {
    EXO_RETURN_NOT_OK(JournalAppend(wfjournal::EventType::kActivityFinished,
                                    parent->id, child->parent_activity, "",
                                    false, out.Serialize()));
  }
  Audit(AuditKind::kActivityFinished, parent->id, child->parent_activity,
        "block child " + child->id);
  return HandleFinished(parent, static_cast<uint32_t>(aid));
}

// --- manual work ---------------------------------------------------------------

Status Engine::Claim(org::WorkItemId id, const std::string& person) {
  if (worklists_ == nullptr) {
    return Status::FailedPrecondition("no organization attached");
  }
  return worklists_->Claim(id, person);
}

Status Engine::ExecuteWorkItem(org::WorkItemId id, const std::string& person) {
  if (worklists_ == nullptr) {
    return Status::FailedPrecondition("no organization attached");
  }
  EXO_ASSIGN_OR_RETURN(const org::WorkItem* item, worklists_->Find(id));
  if (item->state != org::WorkItemState::kClaimed ||
      item->claimed_by != person) {
    return Status::FailedPrecondition("work item " + std::to_string(id) +
                                      " is not claimed by " + person);
  }
  EXO_ASSIGN_OR_RETURN(ProcessInstance* inst,
                       MutableInstance(item->process_instance));
  std::string activity = item->activity;
  EXO_ASSIGN_OR_RETURN(size_t aid, inst->definition->ActivityIndex(activity));
  if (inst->state(static_cast<uint32_t>(aid)) != ActivityState::kReady) {
    return Status::FailedPrecondition("activity " + activity +
                                      " is not ready in " + inst->id);
  }
  EXO_RETURN_NOT_OK(worklists_->Complete(id, person));
  inst->work_item(static_cast<uint32_t>(aid)).reset();
  EXO_RETURN_NOT_OK(StartExecution(inst, static_cast<uint32_t>(aid), person));
  return Run();
}

Status Engine::CompleteAsync(const std::string& instance_id,
                             const std::string& activity,
                             const data::Container& output) {
  EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(instance_id));
  EXO_ASSIGN_OR_RETURN(size_t aid, inst->definition->ActivityIndex(activity));
  const wf::Activity& def = DefOf(inst, static_cast<uint32_t>(aid));
  ActivityState s = inst->state(static_cast<uint32_t>(aid));
  if (s != ActivityState::kRunning) {
    return Status::FailedPrecondition(
        "activity " + activity + " in " + instance_id + " is " +
        ActivityStateName(s) + "; only running activities complete");
  }
  if (!def.is_program()) {
    return Status::FailedPrecondition(
        "block activity " + activity + " completes through its subprocess");
  }
  if (output.type_name() != def.output_type) {
    return Status::InvalidArgument("output container type " +
                                   output.type_name() + " does not match " +
                                   def.output_type);
  }
  data::Container& out = inst->activity_output(static_cast<uint32_t>(aid));
  out = output;
  inst->failures(static_cast<uint32_t>(aid)) = 0;
  if (journal_ != nullptr) {
    EXO_RETURN_NOT_OK(JournalAppend(wfjournal::EventType::kActivityFinished,
                                    inst->id, activity, "", false,
                                    out.Serialize()));
  }
  Audit(AuditKind::kActivityFinished, inst->id, activity, "async");
  EXO_RETURN_NOT_OK(HandleFinished(inst, static_cast<uint32_t>(aid)));
  return Run();
}

Status Engine::ForceFinish(const std::string& instance_id,
                           const std::string& activity,
                           const data::Container& output) {
  EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(instance_id));
  EXO_ASSIGN_OR_RETURN(size_t aid, inst->definition->ActivityIndex(activity));
  const uint32_t uaid = static_cast<uint32_t>(aid);
  const wf::Activity& def = DefOf(inst, uaid);
  ActivityState s = inst->state(uaid);
  if (s != ActivityState::kReady) {
    return Status::FailedPrecondition(
        "only ready activities can be force-finished; " + activity + " is " +
        ActivityStateName(s));
  }
  if (output.type_name() != def.output_type) {
    return Status::InvalidArgument("output container type " +
                                   output.type_name() + " does not match " +
                                   def.output_type);
  }
  std::optional<org::WorkItemId>& item = inst->work_item(uaid);
  if (item.has_value() && worklists_ != nullptr) {
    (void)worklists_->Cancel(*item);
    Audit(AuditKind::kWorkItemCancelled, inst->id, activity,
          std::to_string(*item));
    item.reset();
  }
  const int32_t attempt = ++inst->attempt(uaid);
  EXO_RETURN_NOT_OK(JournalAppend(wfjournal::EventType::kActivityStarted,
                                  inst->id, activity, "", false,
                                  std::to_string(attempt)));
  data::Container& out = inst->activity_output(uaid);
  out = output;
  if (journal_ != nullptr) {
    EXO_RETURN_NOT_OK(JournalAppend(wfjournal::EventType::kActivityFinished,
                                    inst->id, activity, "", false,
                                    out.Serialize()));
  }
  Audit(AuditKind::kForcedFinish, inst->id, activity);
  EXO_RETURN_NOT_OK(HandleFinished(inst, static_cast<uint32_t>(aid)));
  return Run();
}

std::vector<org::Notification> Engine::CheckDeadlines() {
  if (worklists_ == nullptr) return {};
  return worklists_->CheckDeadlines();
}

// --- instance lifecycle control ------------------------------------------------

Status Engine::SuspendInstance(const std::string& instance_id) {
  EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(instance_id));
  if (inst->is_child()) {
    return Status::InvalidArgument(
        "suspend the top-level instance, not block child " + instance_id);
  }
  if (inst->finished) {
    return Status::FailedPrecondition("instance " + instance_id +
                                      " already finished");
  }
  if (inst->failed) {
    return Status::FailedPrecondition("instance " + instance_id +
                                      " is quarantined");
  }
  if (inst->suspended) {
    return Status::FailedPrecondition("instance " + instance_id +
                                      " already suspended");
  }
  EXO_RETURN_NOT_OK(
      JournalAppend(wfjournal::EventType::kInstanceSuspended, instance_id));
  EXO_RETURN_NOT_OK(ApplySuspend(inst));
  return FlushJournal();
}

Status Engine::ApplySuspend(ProcessInstance* inst) {
  inst->suspended = true;
  // Name order: the old runtime kept activities in a name-keyed map, and
  // lifecycle sweeps preserve its iteration order so audit and worklist
  // effects stay byte-identical.
  for (uint32_t aid : inst->plan->ids_by_name()) {
    std::optional<org::WorkItemId>& item = inst->work_item(aid);
    if (item.has_value() && worklists_ != nullptr) {
      (void)worklists_->Cancel(*item);
      item.reset();
    }
    if (inst->state(aid) == ActivityState::kRunning &&
        !inst->child_instance(aid).empty()) {
      auto child = MutableInstance(inst->child_instance(aid));
      if (child.ok() && !(*child)->finished && !(*child)->failed) {
        EXO_RETURN_NOT_OK(ApplySuspend(*child));
      }
    }
  }
  return Status::OK();
}

Status Engine::ResumeSuspended(const std::string& instance_id) {
  EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(instance_id));
  if (!inst->suspended) {
    return Status::FailedPrecondition("instance " + instance_id +
                                      " is not suspended");
  }
  EXO_RETURN_NOT_OK(
      JournalAppend(wfjournal::EventType::kInstanceResumed, instance_id));
  EXO_RETURN_NOT_OK(ApplyResume(inst));
  return FlushJournal();
}

Status Engine::ApplyResume(ProcessInstance* inst) {
  inst->suspended = false;
  if (recovering_) return Status::OK();  // ResumeAfterReplay re-dispatches
  uint32_t n = inst->plan->activity_count();
  for (uint32_t aid = 0; aid < n; ++aid) {  // declaration order
    ActivityState s = inst->state(aid);
    if (s == ActivityState::kReady) {
      if (inst->plan->activity(aid).manual) {
        EXO_RETURN_NOT_OK(
            PostWorkItem(inst, aid, " resumed without worklists"));
      } else {
        Enqueue(inst, aid);
      }
    } else if (s == ActivityState::kRunning &&
               !inst->child_instance(aid).empty()) {
      auto child = MutableInstance(inst->child_instance(aid));
      if (child.ok() && (*child)->suspended) {
        EXO_RETURN_NOT_OK(ApplyResume(*child));
      }
    }
  }
  return Status::OK();
}

Status Engine::CancelInstance(const std::string& instance_id) {
  EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(instance_id));
  if (inst->is_child()) {
    return Status::InvalidArgument(
        "cancel the top-level instance, not block child " + instance_id);
  }
  if (inst->finished) {
    return Status::FailedPrecondition("instance " + instance_id +
                                      " already finished");
  }
  if (inst->failed) {
    return Status::FailedPrecondition("instance " + instance_id +
                                      " is quarantined");
  }
  EXO_RETURN_NOT_OK(
      JournalAppend(wfjournal::EventType::kInstanceCancelled, instance_id));
  EXO_RETURN_NOT_OK(ApplyCancel(inst));
  return FlushJournal();
}

Status Engine::ApplyCancel(ProcessInstance* inst) {
  // Children first, so a block child is settled before its parent slot.
  // Both sweeps run in name order (see ApplySuspend).
  for (uint32_t aid : inst->plan->ids_by_name()) {
    if (inst->state(aid) == ActivityState::kRunning &&
        !inst->child_instance(aid).empty()) {
      auto child = MutableInstance(inst->child_instance(aid));
      if (child.ok() && !(*child)->finished && !(*child)->failed) {
        EXO_RETURN_NOT_OK(ApplyCancel(*child));
      }
    }
  }
  for (uint32_t aid : inst->plan->ids_by_name()) {
    ActivityState s = inst->state(aid);
    if (s == ActivityState::kTerminated || s == ActivityState::kDead) {
      continue;
    }
    const std::string& name = NameOf(inst, aid);
    std::optional<org::WorkItemId>& item = inst->work_item(aid);
    if (item.has_value() && worklists_ != nullptr) {
      (void)worklists_->Cancel(*item);
      Audit(AuditKind::kWorkItemCancelled, inst->id, name,
            std::to_string(*item));
      item.reset();
    }
    inst->SetState(aid, ActivityState::kDead);
    Audit(AuditKind::kActivityDead, inst->id, name, "cancelled");
  }
  inst->cancelled = true;
  inst->suspended = false;
  inst->finished = true;
  ++stats_.instances_finished;
  Audit(AuditKind::kInstanceFinished, inst->id, "", "cancelled");
  return Status::OK();
}

// --- instance migration (work stealing) ------------------------------------------

size_t Engine::unfinished_top_level() const {
  size_t n = 0;
  for (const ProcessInstance& inst : instances_) {
    if (!inst.is_child() && !inst.finished && !inst.failed && !inst.detached) {
      ++n;
    }
  }
  return n;
}

Result<std::string> Engine::PickDetachable() const {
  if (ready_queue_.empty()) {
    return Status::NotFound("ready queue is empty");
  }
  auto root_of = [this](uint32_t index) -> const ProcessInstance* {
    const ProcessInstance* p = &instances_[index];
    while (p->is_child()) {
      auto it = instance_index_.find(p->parent_instance);
      if (it == instance_index_.end()) return nullptr;
      p = &instances_[it->second];
    }
    return p;
  };
  auto family_size = [this](const ProcessInstance* root) -> size_t {
    std::vector<const ProcessInstance*> frontier = {root};
    for (size_t i = 0; i < frontier.size(); ++i) {
      const ProcessInstance* m = frontier[i];
      const uint32_t n = m->activity_count();
      for (uint32_t aid = 0; aid < n; ++aid) {
        const std::string& child_id = m->child_instance(aid);
        if (child_id.empty()) continue;
        auto it = instance_index_.find(child_id);
        if (it == instance_index_.end()) continue;
        frontier.push_back(&instances_[it->second]);
      }
    }
    return frontier.size();
  };
  // The head family stays: the victim is about to execute it, so stealing
  // it would hand over the hottest cache lines and leave the victim idle.
  // Among the rest, prefer the *smallest* family: it is the cheapest to
  // serialize, and a deep block tree signals an expensive computation in
  // flight that is better finished where it lives than re-homed mid-run.
  const ProcessInstance* head = root_of(ready_queue_.front().first);
  const ProcessInstance* best = nullptr;
  size_t best_size = 0;
  for (auto it = ready_queue_.rbegin(); it != ready_queue_.rend(); ++it) {
    const ProcessInstance* root = root_of(it->first);
    if (root == nullptr || root == head || root == best) continue;
    if (root->finished || root->failed || root->detached || root->suspended) {
      continue;
    }
    size_t size = family_size(root);
    if (best == nullptr || size < best_size) {
      best = root;
      best_size = size;
    }
  }
  if (best == nullptr) {
    return Status::NotFound("ready queue holds a single instance family");
  }
  return best->id;
}

Status Engine::CollectFamily(ProcessInstance* root,
                             std::vector<ProcessInstance*>* family) {
  family->push_back(root);
  // Breadth-first, so parents always precede their children in the image
  // list — the order Adopt materializes them in.
  for (size_t i = 0; i < family->size(); ++i) {
    ProcessInstance* m = (*family)[i];
    const uint32_t n = m->activity_count();
    for (uint32_t aid = 0; aid < n; ++aid) {
      const std::string& child_id = m->child_instance(aid);
      if (child_id.empty()) continue;
      EXO_ASSIGN_OR_RETURN(ProcessInstance* child, MutableInstance(child_id));
      family->push_back(child);
    }
  }
  return Status::OK();
}

void Engine::ReleaseSlot(ProcessInstance* inst) {
  inst->detached = true;
  inst->ResetEnqueued();
  instance_index_.erase(inst->id);
  instance_order_.erase(
      std::remove(instance_order_.begin(), instance_order_.end(), inst->id),
      instance_order_.end());
}

Result<DetachedInstance> Engine::Detach(const std::string& instance_id) {
  EXO_ASSIGN_OR_RETURN(ProcessInstance* root, MutableInstance(instance_id));
  if (root->is_child()) {
    return Status::InvalidArgument("detach the top-level instance, not block child " +
                                   instance_id);
  }
  if (root->finished) {
    return Status::FailedPrecondition("instance " + instance_id +
                                      " already finished");
  }
  if (root->failed) {
    // Quarantine is engine-local state (FailedInstances); migrating a
    // quarantined instance would strand its failure record.
    return Status::FailedPrecondition("instance " + instance_id +
                                      " is quarantined; it stays put");
  }
  std::vector<ProcessInstance*> family;
  EXO_RETURN_NOT_OK(CollectFamily(root, &family));
  for (ProcessInstance* m : family) {
    const uint32_t n = m->activity_count();
    for (uint32_t aid = 0; aid < n; ++aid) {
      if (m->work_item(aid).has_value()) {
        return Status::FailedPrecondition(
            "instance " + instance_id +
            " has posted work items; manual work does not migrate");
      }
      if (m->state(aid) == ActivityState::kRunning &&
          !m->plan->activity(aid).block) {
        // A Pending program will report back to *this* engine
        // (CompleteAsync); migrating underneath it would lose the report.
        return Status::FailedPrecondition(
            "instance " + instance_id +
            " has an in-flight asynchronous program");
      }
    }
  }

  DetachedInstance detached;
  detached.root_id = instance_id;
  detached.images.reserve(family.size());
  for (ProcessInstance* m : family) {
    detached.images.push_back(EncodeInstanceImage(*m));
  }
  // Journal + flush the full image *before* releasing the slots: if the
  // handoff dies between here and the adopter's journal, recovery replays
  // this record into detached_images_ and the fleet re-adopts from there.
  EXO_RETURN_NOT_OK(JournalAppend(wfjournal::EventType::kInstanceDetached,
                                  instance_id, "", "", false,
                                  detached.EncodePayload()));
  EXO_RETURN_NOT_OK(FlushJournal());
  for (ProcessInstance* m : family) ReleaseSlot(m);
  ready_queue_.erase(
      std::remove_if(ready_queue_.begin(), ready_queue_.end(),
                     [this](const std::pair<uint32_t, uint32_t>& e) {
                       return instances_[e.first].detached;
                     }),
      ready_queue_.end());
  ++stats_.instances_detached;
  Audit(AuditKind::kInstanceDetached, instance_id, "",
        std::to_string(family.size()) + " instances");
  return detached;
}

Status Engine::Adopt(const DetachedInstance& detached) {
  // Materialize first: a rejected image must leave no trace in the
  // journal, or replay would fail on the same bad record forever.
  // Materialization emits no navigation records, so appending the adopt
  // record afterwards still keeps this journal self-contained — every
  // later record for the family lands after it.
  EXO_RETURN_NOT_OK(ApplyAdopt(detached));
  EXO_RETURN_NOT_OK(JournalAppend(wfjournal::EventType::kInstanceAdopted,
                                  detached.root_id, "", "", false,
                                  detached.EncodePayload()));
  return FlushJournal();
}

Status Engine::ApplyAdopt(const DetachedInstance& detached) {
  // Decode, validate, and build every member before committing any, so a
  // bad image cannot leave a half-adopted family behind.
  std::vector<InstanceImage> images;
  images.reserve(detached.images.size());
  for (const std::string& encoded : detached.images) {
    EXO_ASSIGN_OR_RETURN(InstanceImage image, DecodeInstanceImage(encoded));
    bool collision = instance_index_.count(image.id) > 0;
    for (const InstanceImage& member : images) {
      collision = collision || member.id == image.id;
    }
    if (collision) {
      return Status::FailedPrecondition("instance id collision adopting " +
                                        image.id +
                                        " (fleet id prefixes not set?)");
    }
    EXO_RETURN_NOT_OK(definitions_
                          ->FindProcessVersion(image.process_name,
                                               image.version)
                          .status());
    images.push_back(std::move(image));
  }
  if (images.empty() || images[0].id != detached.root_id) {
    return Status::InvalidArgument("detached payload root mismatch for " +
                                   detached.root_id);
  }
  std::vector<ProcessInstance> family(images.size());
  for (size_t i = 0; i < images.size(); ++i) {
    EXO_RETURN_NOT_OK(BuildFromImage(images[i], &family[i]));
  }
  for (ProcessInstance& member : family) CommitInstance(std::move(member));
  ++stats_.instances_stolen;
  Audit(AuditKind::kInstanceAdopted, detached.root_id, "",
        std::to_string(images.size()) + " instances");
  return Status::OK();
}

Status Engine::BuildFromImage(const InstanceImage& image,
                              ProcessInstance* inst) {
  EXO_ASSIGN_OR_RETURN(
      const wf::ProcessDefinition* def,
      definitions_->FindProcessVersion(image.process_name, image.version));
  inst->id = image.id;
  inst->definition = def;
  inst->plan = &def->plan();
  inst->parent_instance = image.parent_instance;
  inst->parent_activity = image.parent_activity;
  EXO_ASSIGN_OR_RETURN(inst->input, NewContainer(def->input_type()));
  EXO_RETURN_NOT_OK(inst->input.Deserialize(image.input_image));
  EXO_ASSIGN_OR_RETURN(inst->output, NewContainer(def->output_type()));
  EXO_RETURN_NOT_OK(inst->output.Deserialize(image.output_image));
  if (image.activities.size() != inst->plan->activity_count()) {
    return Status::Corruption("instance image for " + image.id + " has " +
                              std::to_string(image.activities.size()) +
                              " activities; definition has " +
                              std::to_string(inst->plan->activity_count()));
  }
  // Arena spin-up, then overlay the imaged state on the fresh runtimes.
  EXO_RETURN_NOT_OK(InitializeRuntimes(inst));
  for (uint32_t aid = 0; aid < inst->activity_count(); ++aid) {
    const InstanceImage::ActivityImage& a = image.activities[aid];
    const wf::NavigationPlan::ActivityInfo& info = inst->plan->activity(aid);
    if (a.incoming_eval.size() != info.in_control.size() ||
        a.outgoing_eval.size() != info.out_control.size()) {
      return Status::Corruption("connector-evaluation arity mismatch in image of " +
                                image.id);
    }
    inst->SetState(aid, static_cast<ActivityState>(a.state));
    inst->attempt(aid) = a.attempt;
    inst->failures(aid) = a.failures;
    inst->child_instance(aid) = a.child_instance;
    for (uint32_t s = 0; s < a.incoming_eval.size(); ++s) {
      inst->in_eval_abs(info.in_eval_base + s) = a.incoming_eval[s];
    }
    for (uint32_t s = 0; s < a.outgoing_eval.size(); ++s) {
      inst->out_eval_abs(info.out_eval_base + s) = a.outgoing_eval[s];
    }
    // A pristine container round-trips through an empty image, so skip
    // materializing cold containers that the image carries nothing for.
    if (!a.input_image.empty()) {
      MaterializeActivityInput(inst, aid);
      EXO_RETURN_NOT_OK(inst->activity_input(aid).Deserialize(a.input_image));
    }
    if (!a.output_image.empty()) {
      MaterializeActivityOutput(inst, aid);
      EXO_RETURN_NOT_OK(
          inst->activity_output(aid).Deserialize(a.output_image));
    }
  }
  inst->finished = image.finished;
  inst->cancelled = image.cancelled;
  inst->failed = image.failed;
  inst->suspended = image.suspended;
  inst->failure_reason = image.failure_reason;
  inst->retries_used = image.retries_used;
  return Status::OK();
}

ProcessInstance* Engine::CommitInstance(ProcessInstance inst) {
  const uint32_t index = static_cast<uint32_t>(instances_.size());
  inst.index = index;
  instance_index_.emplace(inst.id, index);
  instance_order_.push_back(inst.id);
  instances_.push_back(std::move(inst));
  ProcessInstance* p = &instances_[index];
  // Spin-ups count once committed, so a rejected build leaves the
  // counters as they were.
  ++stats_.arena_spinups;
  if (shared_arenas_.count(p->definition) > 0) ++stats_.arena_shared_hits;
  // During journal replay, later records (and ResumeAfterReplay) drive the
  // family onward; live adoption re-dispatches the ready work here.
  if (!recovering_ && !p->suspended && !p->finished && !p->failed) {
    uint32_t n = p->plan->activity_count();
    for (uint32_t aid = 0; aid < n; ++aid) {
      if (p->state(aid) == ActivityState::kReady &&
          !p->plan->activity(aid).manual) {
        Enqueue(p, aid);
      }
    }
  }
  return p;
}

Result<DetachedInstance> Engine::TakeDetachedImage(const std::string& root_id) {
  auto it = detached_images_.find(root_id);
  if (it == detached_images_.end()) {
    return Status::NotFound("no retained detach image for " + root_id);
  }
  DetachedInstance detached = std::move(it->second);
  detached_images_.erase(it);
  return detached;
}

std::vector<std::string> Engine::RetainedDetachedRoots() const {
  std::vector<std::string> roots;
  roots.reserve(detached_images_.size());
  for (const auto& entry : detached_images_) roots.push_back(entry.first);
  return roots;
}

// --- checkpointing -----------------------------------------------------------

Status Engine::Checkpoint() {
  if (journal_ == nullptr) {
    return Status::FailedPrecondition("no journal attached");
  }
  // Collect live images in creation (index) order, so parents precede
  // their block children — the order ReplaySnapshot rebuilds them in.
  // Finished (including cancelled) top-level families are dropped; that is
  // what makes recovery O(live state). Quarantined families stay: their
  // committed-state image is the saga compensation source.
  std::string payload;
  size_t live = 0;
  for (const ProcessInstance& inst : instances_) {
    if (inst.detached) continue;
    const ProcessInstance* root = &inst;
    while (root->is_child()) {
      auto it = instance_index_.find(root->parent_instance);
      if (it == instance_index_.end()) break;
      root = &instances_[it->second];
    }
    if (root->finished && !root->failed) continue;
    payload += EscapeQuoted(EncodeInstanceImage(inst));
    payload += '\n';
    ++live;
  }
  // Order of operations is the crash contract (see
  // docs/specs/snapshot_recovery.md): flush navigation records, rotate so
  // the snapshot is the first record of a fresh segment, append + flush
  // the snapshot, and only then truncate — a crash anywhere in between
  // leaves either a journal that fully replays or a durable snapshot.
  EXO_RETURN_NOT_OK(FlushJournal());
  EXO_RETURN_NOT_OK(journal_->RotateSegment());
  uint64_t snapshot_seq = journal_->size();
  EXO_RETURN_NOT_OK(JournalAppend(wfjournal::EventType::kSnapshot, "", "", "",
                                  /*flag=*/false, std::move(payload),
                                  std::to_string(next_instance_)));
  EXO_RETURN_NOT_OK(FlushJournal());
  ++stats_.snapshots_written;
  records_since_snapshot_ = 0;
  // Retained dangling-handoff images had their re-adoption window (the
  // fleet's post-recovery pass); a checkpoint closes it.
  detached_images_.clear();
  EXO_ASSIGN_OR_RETURN(uint64_t dropped,
                       journal_->TruncateBefore(snapshot_seq));
  stats_.records_truncated += dropped;
  Audit(AuditKind::kCheckpoint, "", "",
        std::to_string(live) + " live, " + std::to_string(dropped) +
            " truncated");
  return Status::OK();
}

Status Engine::MaybeCheckpoint() {
  if (journal_ == nullptr || recovering_ || options_.snapshot_interval == 0 ||
      records_since_snapshot_ < options_.snapshot_interval) {
    return Status::OK();
  }
  return Checkpoint();
}

// --- recovery --------------------------------------------------------------------

Status Engine::Recover() {
  if (journal_ == nullptr) {
    return Status::FailedPrecondition("no journal attached");
  }
  if (!instances_.empty()) {
    return Status::FailedPrecondition("Recover requires a fresh engine");
  }

  recovering_ = true;
  replay_saw_snapshot_ = false;
  replay_snapshot_seq_ = 0;
  Status replay = journal_->Visit([this](const wfjournal::Record& r) {
    ++stats_.recovery_records_replayed;
    Status st = ReplayRecord(r);
    if (!st.ok()) {
      return st.WithContext("replaying journal record seq " +
                            std::to_string(r.seq));
    }
    return Status::OK();
  });
  recovering_ = false;
  EXO_RETURN_NOT_OK(replay);

  // Resume every unfinished instance from its exact failure point.
  for (uint32_t i = 0; i < instances_.size(); ++i) {
    ProcessInstance* inst = &instances_[i];
    // Suspended instances stay parked; ResumeSuspended re-dispatches them.
    // Suspension only happens at navigation quiescence, so they have no
    // interrupted steps to complete. Quarantined instances are terminal,
    // and detached husks belong to whichever engine adopted them.
    if (inst->finished || inst->failed || inst->suspended || inst->detached) {
      continue;
    }
    EXO_RETURN_NOT_OK_CTX(ResumeAfterReplay(inst),
                          "resuming instance " + inst->id);
  }
  // A crash between the snapshot flush and its truncation left the
  // pre-snapshot segments behind; finish the job now that replay proved
  // the snapshot complete.
  if (replay_saw_snapshot_) {
    EXO_ASSIGN_OR_RETURN(uint64_t dropped,
                         journal_->TruncateBefore(replay_snapshot_seq_));
    stats_.records_truncated += dropped;
    records_since_snapshot_ = journal_->size() - replay_snapshot_seq_ - 1;
  } else {
    records_since_snapshot_ = journal_->size() - journal_->first_seq();
  }
  return FlushJournal();
}

Status Engine::ReplayRecord(const wfjournal::Record& r) {
  using wfjournal::EventType;
  switch (r.type) {
    case EventType::kInstanceStart: {
      // Payload: "v<version>:<name>".
      size_t colon = r.payload.find(':');
      if (r.payload.size() < 3 || r.payload[0] != 'v' ||
          colon == std::string::npos) {
        return Status::Corruption("malformed INSTANCE_START payload: " +
                                  r.payload);
      }
      int version = static_cast<int>(
          std::strtol(r.payload.c_str() + 1, nullptr, 10));
      std::string process_name = r.payload.substr(colon + 1);
      EXO_ASSIGN_OR_RETURN(
          const wf::ProcessDefinition* def,
          definitions_->FindProcessVersion(process_name, version));
      if (instance_index_.count(r.instance) > 0) {
        return Status::Corruption("duplicate INSTANCE_START for " + r.instance);
      }
      ProcessInstance inst;
      inst.id = r.instance;
      inst.definition = def;
      inst.plan = &def->plan();
      inst.parent_activity = r.activity;
      inst.parent_instance = r.to;
      EXO_ASSIGN_OR_RETURN(inst.input, NewContainer(def->input_type()));
      EXO_RETURN_NOT_OK(inst.input.Deserialize(r.extra));
      EXO_ASSIGN_OR_RETURN(inst.output, NewContainer(def->output_type()));
      EXO_RETURN_NOT_OK(InitializeRuntimes(&inst));
      CommitInstance(std::move(inst));
      ++stats_.instances_started;
      NoteRecoveredId(r.instance);
      // Wire the parent's block activity to this child.
      if (!r.to.empty()) {
        EXO_ASSIGN_OR_RETURN(ProcessInstance* parent, MutableInstance(r.to));
        EXO_ASSIGN_OR_RETURN(size_t paid,
                             parent->definition->ActivityIndex(r.activity));
        parent->child_instance(static_cast<uint32_t>(paid)) = r.instance;
      }
      return Status::OK();
    }
    case EventType::kActivityReady:
    case EventType::kActivityRescheduled: {
      EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(r.instance));
      EXO_ASSIGN_OR_RETURN(size_t aid,
                           inst->definition->ActivityIndex(r.activity));
      inst->SetState(static_cast<uint32_t>(aid), ActivityState::kReady);
      return Status::OK();
    }
    case EventType::kActivityStarted: {
      EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(r.instance));
      EXO_ASSIGN_OR_RETURN(size_t aid,
                           inst->definition->ActivityIndex(r.activity));
      const uint32_t uaid = static_cast<uint32_t>(aid);
      inst->SetState(uaid, ActivityState::kRunning);
      inst->attempt(uaid) =
          static_cast<int32_t>(std::strtol(r.payload.c_str(), nullptr, 10));
      inst->activity_output(uaid) = inst->arena->activity_output(uaid);
      return Status::OK();
    }
    case EventType::kActivityFinished: {
      EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(r.instance));
      EXO_ASSIGN_OR_RETURN(size_t aid,
                           inst->definition->ActivityIndex(r.activity));
      const uint32_t uaid = static_cast<uint32_t>(aid);
      MaterializeActivityOutput(inst, uaid);
      EXO_RETURN_NOT_OK(inst->activity_output(uaid).Deserialize(r.payload));
      inst->SetState(uaid, ActivityState::kFinished);
      return Status::OK();
    }
    case EventType::kActivityTerminated: {
      EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(r.instance));
      EXO_ASSIGN_OR_RETURN(size_t aid,
                           inst->definition->ActivityIndex(r.activity));
      inst->SetState(static_cast<uint32_t>(aid), ActivityState::kTerminated);
      inst->failures(static_cast<uint32_t>(aid)) = 0;
      // Re-derive the (volatile) data pushes from the journaled output.
      return PushData(inst, static_cast<uint32_t>(aid));
    }
    case EventType::kActivityDead: {
      EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(r.instance));
      EXO_ASSIGN_OR_RETURN(size_t aid,
                           inst->definition->ActivityIndex(r.activity));
      inst->SetState(static_cast<uint32_t>(aid), ActivityState::kDead);
      return Status::OK();
    }
    case EventType::kConnectorEval: {
      EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(r.instance));
      const std::vector<wf::ControlConnector>& connectors =
          inst->definition->control_connectors();
      Result<size_t> from = inst->definition->ActivityIndex(r.activity);
      if (from.ok()) {
        const wf::NavigationPlan::ActivityInfo& info =
            inst->plan->activity(static_cast<uint32_t>(*from));
        for (uint32_t cidx : info.out_control) {
          if (connectors[cidx].to != r.to) continue;
          const wf::NavigationPlan::ConnectorInfo& ci =
              inst->plan->connector(cidx);
          inst->out_eval(ci.from, ci.out_slot) = r.flag ? 1 : 0;
          inst->in_eval(ci.to, ci.in_slot) = r.flag ? 1 : 0;
          return Status::OK();
        }
      }
      return Status::Corruption("journaled connector " + r.activity + " -> " +
                                r.to + " not in definition of " +
                                inst->definition->name());
    }
    case EventType::kInstanceFinished: {
      EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(r.instance));
      EXO_RETURN_NOT_OK(inst->output.Deserialize(r.payload));
      inst->finished = true;
      ++stats_.instances_finished;
      return Status::OK();
    }
    case EventType::kChildSpawned:
      return Status::OK();  // superseded by parent fields on INSTANCE_START
    case EventType::kInstanceSuspended: {
      EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(r.instance));
      return ApplySuspend(inst);
    }
    case EventType::kInstanceResumed: {
      EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(r.instance));
      return ApplyResume(inst);
    }
    case EventType::kInstanceCancelled: {
      EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(r.instance));
      return ApplyCancel(inst);
    }
    case EventType::kInstanceFailed: {
      EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(r.instance));
      return ApplyFailed(inst, r.payload);
    }
    case EventType::kInstanceDetached: {
      EXO_ASSIGN_OR_RETURN(
          DetachedInstance detached,
          DetachedInstance::DecodePayload(r.instance, r.payload));
      for (const std::string& encoded : detached.images) {
        EXO_ASSIGN_OR_RETURN(InstanceImage image, DecodeInstanceImage(encoded));
        auto it = instance_index_.find(image.id);
        if (it == instance_index_.end()) {
          return Status::Corruption("DETACHED for unknown instance " +
                                    image.id);
        }
        ReleaseSlot(&instances_[it->second]);
      }
      ++stats_.instances_detached;
      // Retain the image: if no engine's journal shows the adopt, the
      // handoff died in flight and the fleet re-adopts from here.
      detached_images_[r.instance] = std::move(detached);
      return Status::OK();
    }
    case EventType::kInstanceAdopted: {
      EXO_ASSIGN_OR_RETURN(
          DetachedInstance detached,
          DetachedInstance::DecodePayload(r.instance, r.payload));
      // The handoff reached an adopter's journal: any image retained from
      // an earlier kInstanceDetached replay (detach + adopt-back through
      // the same journal) is dead weight — drop it.
      detached_images_.erase(r.instance);
      return ApplyAdopt(detached);
    }
    case EventType::kSnapshot:
      return ReplaySnapshot(r);
  }
  return Status::Corruption("unknown journal record type");
}

Status Engine::ReplaySnapshot(const wfjournal::Record& r) {
  // A checkpoint supersedes everything replayed so far. Normally nothing
  // precedes it — the record opens its segment and truncation dropped the
  // rest — but a crash between the snapshot flush and its truncation
  // leaves the prefix behind, and replaying through it must land in the
  // same state as replaying the truncated journal.
  instances_.clear();
  instance_index_.clear();
  instance_order_.clear();
  ready_queue_.clear();
  failed_.clear();
  detached_images_.clear();
  next_instance_ = 1;
  stats_.instances_started = 0;
  stats_.instances_finished = 0;
  stats_.instances_failed = 0;
  stats_.instances_detached = 0;
  stats_.instances_stolen = 0;
  replay_saw_snapshot_ = true;
  replay_snapshot_seq_ = r.seq;

  for (const std::string& line : Split(r.payload, '\n')) {
    if (line.empty()) continue;
    std::string encoded;
    if (!UnescapeQuoted(line, &encoded)) {
      return Status::Corruption("bad image escape in snapshot record seq " +
                                std::to_string(r.seq));
    }
    EXO_ASSIGN_OR_RETURN(InstanceImage image, DecodeInstanceImage(encoded));
    ProcessInstance built;
    EXO_RETURN_NOT_OK(BuildFromImage(image, &built));
    ProcessInstance* p = CommitInstance(std::move(built));
    ++stats_.instances_started;
    if (p->finished) ++stats_.instances_finished;
    if (p->failed && !p->is_child()) {
      ++stats_.instances_failed;
      failed_.push_back({p->id, p->failure_reason});
    }
    NoteRecoveredId(p->id);
  }
  // The snapshot pins the id counter explicitly too: instances created
  // after the imaged ones and already finished (hence absent above) must
  // not get their ids reused.
  if (!r.extra.empty()) {
    uint64_t n = std::strtoull(r.extra.c_str(), nullptr, 10);
    if (n > next_instance_) next_instance_ = n;
  }
  return Status::OK();
}

void Engine::NoteRecoveredId(const std::string& id) {
  // Restore the id counter past any "<prefix>wf-N" id seen. Foreign
  // prefixes (adopted instances) never collide with ours, so only our own
  // prefix advances the counter.
  std::string_view local = id;
  if (StartsWith(local, options_.instance_id_prefix)) {
    local.remove_prefix(options_.instance_id_prefix.size());
    if (StartsWith(local, "wf-")) {
      uint64_t n = std::strtoull(local.data() + 3, nullptr, 10);
      if (n + 1 > next_instance_) next_instance_ = n + 1;
    }
  }
}

Status Engine::ResumeAfterReplay(ProcessInstance* inst) {
  for (uint32_t aid : inst->plan->topological_order()) {
    const wf::NavigationPlan::ActivityInfo& info = inst->plan->activity(aid);
    switch (inst->state(aid)) {
      case ActivityState::kWaiting: {
        if (info.join_fan_in == 0) {
          // Crash before the start activity was readied.
          EXO_RETURN_NOT_OK(MakeReady(inst, aid));
        } else {
          EXO_RETURN_NOT_OK(ApplyJoin(inst, aid));
        }
        break;
      }
      case ActivityState::kReady: {
        Audit(AuditKind::kRecoveryResumed, inst->id, NameOf(inst, aid),
              "ready");
        if (info.manual) {
          EXO_RETURN_NOT_OK(
              PostWorkItem(inst, aid, " recovered without worklists"));
        } else {
          Enqueue(inst, aid);
        }
        break;
      }
      case ActivityState::kRunning: {
        if (info.block && !inst->child_instance(aid).empty()) {
          EXO_ASSIGN_OR_RETURN(ProcessInstance* child,
                               MutableInstance(inst->child_instance(aid)));
          if (child->finished) {
            // Crash between the child's completion and the parent's
            // continuation: continue now.
            EXO_RETURN_NOT_OK(ContinueParent(child));
          }
          // Otherwise the child resumes on its own and will continue us.
          break;
        }
        // In-flight program (or a block whose child was never created):
        // re-run from the beginning — the at-least-once contract.
        Audit(AuditKind::kRecoveryResumed, inst->id, NameOf(inst, aid),
              "was running");
        EXO_RETURN_NOT_OK(Reschedule(inst, aid, "recovery"));
        break;
      }
      case ActivityState::kFinished: {
        // Crash between FINISHED and the exit-condition outcome.
        Audit(AuditKind::kRecoveryResumed, inst->id, NameOf(inst, aid),
              "was finished");
        EXO_RETURN_NOT_OK(HandleFinished(inst, aid));
        break;
      }
      case ActivityState::kTerminated: {
        // Complete any connector evaluations that were cut short.
        EXO_RETURN_NOT_OK(EvaluateOutgoing(inst, aid, /*all_false=*/false));
        break;
      }
      case ActivityState::kDead: {
        EXO_RETURN_NOT_OK(EvaluateOutgoing(inst, aid, /*all_false=*/true));
        break;
      }
    }
  }
  return CheckInstanceCompletion(inst);
}

}  // namespace exotica::wfrt
