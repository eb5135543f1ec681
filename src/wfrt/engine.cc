#include "wfrt/engine.h"

#include <algorithm>
#include <charconv>
#include <optional>

#include "common/strings.h"

namespace exotica::wfrt {

using wf::ActivityState;

namespace {
// Name of activity `aid` — journal records and rendered audit events
// still speak names; navigation itself stays on ids.
inline const std::string& NameOf(const ProcessInstance* inst, uint32_t aid) {
  return inst->definition->activities()[aid].name;
}

constexpr uint32_t kNoActivity = RingEvent::kNone;

inline const wf::Activity& DefOf(const ProcessInstance* inst, uint32_t aid) {
  return inst->definition->activities()[aid];
}

// Id of the activity `name` in `inst`: where names arrive from outside
// (the public API, journal replay).
Result<uint32_t> ActivityId(const ProcessInstance* inst,
                            const std::string& name) {
  EXO_ASSIGN_OR_RETURN(size_t aid, inst->definition->ActivityIndex(name));
  return static_cast<uint32_t>(aid);
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

Status Engine::JournalAppend(const wfjournal::RecordView& view) {
  if (journal_ == nullptr) return Status::OK();
  EXO_RETURN_NOT_OK(journal_->AppendView(view));
  ++records_since_snapshot_;
  return Status::OK();
}

Status Engine::JournalStep(const ProcessInstance* inst, const Step& step,
                           wfjournal::EventType type) {
  if (journal_ == nullptr) return Status::OK();
  wfjournal::RecordView v;
  v.type = type;
  v.instance = inst->id;
  if (step.activity != kNoActivity) v.activity = NameOf(inst, step.activity);
  char digits[20];
  switch (type) {
    case wfjournal::EventType::kActivityStarted: {
      auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), step.aux);
      (void)ec;  // 20 digits hold any uint64_t
      v.payload = std::string_view(digits, static_cast<size_t>(end - digits));
      break;
    }
    case wfjournal::EventType::kActivityRescheduled:
      v.payload = AuditTextString(static_cast<AuditText>(step.aux));
      break;
    case wfjournal::EventType::kConnectorEval:
      v.to = NameOf(inst, static_cast<uint32_t>(step.aux));
      v.flag = step.kind == AuditKind::kConnectorTrue;
      break;
    default:
      v.payload = step.payload;
      break;
  }
  return JournalAppend(v);
}

Status Engine::FlushJournal() {
  if (journal_ == nullptr) return Status::OK();
  return journal_->Flush();
}

uint32_t Engine::AuditRef(ProcessInstance* inst) {
  if (inst == nullptr || !options_.audit_enabled) return RingEvent::kNone;
  if (inst->audit_ref == RingEvent::kNone) {
    inst->audit_ref = audit_.AddName(inst->id, inst->definition);
  }
  return inst->audit_ref;
}

void Engine::Audit(ProcessInstance* inst, const Step& step) {
  if (!options_.audit_enabled) return;
  RingEvent e;
  e.at = clock_->NowMicros();
  e.aux = step.aux;
  e.instance = AuditRef(inst);
  e.activity = step.activity;
  e.kind = static_cast<uint8_t>(step.kind);
  e.detail = step.detail;
  audit_.Push(e);
  if (observer_) observer_(audit_.Render(audit_.back()));
}

void Engine::AuditOwned(ProcessInstance* inst, AuditKind kind,
                        uint32_t activity, std::string text) {
  if (!options_.audit_enabled) return;
  RingEvent e;
  e.at = clock_->NowMicros();
  e.instance = AuditRef(inst);
  e.activity = activity;
  e.kind = static_cast<uint8_t>(kind);
  audit_.PushOwned(e, std::move(text));
  if (observer_) observer_(audit_.Render(audit_.back()));
}

std::string_view Engine::Image(const data::Container& c) {
  if (journal_ == nullptr) return {};
  c.SerializeTo(&image_scratch_);
  return image_scratch_;
}

std::string Engine::NewInstanceId() {
  return options_.instance_id_prefix + "wf-" + std::to_string(next_instance_++);
}

Result<ProcessInstance*> Engine::MutableInstance(const std::string& id) {
  EXO_ASSIGN_OR_RETURN(const ProcessInstance* inst, FindInstance(id));
  return &instances_[inst->index];
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

// --- instance creation ------------------------------------------------------

Result<std::string> Engine::StartProcess(const std::string& process_name,
                                         const data::Container* input) {
  EXO_ASSIGN_OR_RETURN(const wf::ProcessDefinition* def,
                       definitions_->FindProcess(process_name));
  Result<std::string> id = CreateInstance(def, input, nullptr, 0);
  EXO_RETURN_NOT_OK(FlushJournal());
  return id;
}

Result<std::string> Engine::CreateInstance(
    const wf::ProcessDefinition* def, const data::Container* input,
    ProcessInstance* parent, uint32_t parent_activity) {
  ProcessInstance inst;
  inst.id = NewInstanceId();
  if (input != nullptr && input->type_name() != def->input_type()) {
    return Status::InvalidArgument(
        "input container type " + input->type_name() +
        " does not match process input type " + def->input_type());
  }
  EXO_RETURN_NOT_OK(BuildInstance(def, input, parent, parent_activity, &inst));

  // Journaled once built, so a start that fails to build leaves no record
  // behind for replay to trip over. The payload pins the template version
  // so recovery replays against the exact definition this instance
  // started with, even if newer versions registered since.
  if (journal_ != nullptr) {
    const std::string version =
        "v" + std::to_string(def->version()) + ":" + def->name();
    std::string_view block;
    if (parent != nullptr) block = NameOf(parent, parent_activity);
    EXO_RETURN_NOT_OK(JournalAppend(
        {wfjournal::EventType::kInstanceStart, inst.id, block,
         inst.parent_instance, /*flag=*/false, version, Image(inst.input)}));
  }
  ProcessInstance* p = CommitInstance(std::move(inst));
  ++stats_.instances_started;
  Audit(p, {AuditKind::kInstanceStarted, kNoActivity, AuditDetail::kProcess});
  if (parent != nullptr) parent->child(parent_activity) = p->index;

  EXO_RETURN_NOT_OK(ReadyStartActivities(p));
  return p->id;
}

Status Engine::BuildInstance(const wf::ProcessDefinition* def,
                             const data::Container* input,
                             const ProcessInstance* parent,
                             uint32_t parent_activity, ProcessInstance* inst,
                             const std::string& input_image,
                             const std::string& output_image) {
  const wf::NavigationPlan& plan = def->plan();
  if (parent != nullptr) {
    inst->parent = parent->index;
    inst->parent_activity = parent_activity;
    inst->parent_instance = parent->id;
  }
  inst->definition = def;
  inst->plan = &plan;
  inst->input = input != nullptr ? *input : plan.input_prototype();
  if (!input_image.empty()) {
    EXO_RETURN_NOT_OK(inst->input.Deserialize(input_image));
  }
  inst->output = plan.output_prototype();
  if (!output_image.empty()) {
    EXO_RETURN_NOT_OK(inst->output.Deserialize(output_image));
  }
  // One copy of the plan's preformatted hot block plus a
  // default-constructed cold sidecar — no per-activity container copies at
  // spin-up; cold containers materialize on first touch.
  inst->hl = plan.hot();
  inst->hot = plan.hot_image();
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
  if (c.type_name().empty()) c = inst->plan->activity_input(aid);
}

void Engine::MaterializeActivityOutput(ProcessInstance* inst, uint32_t aid) {
  data::Container& c = inst->cold[aid].output;
  if (c.type_name().empty()) c = inst->plan->activity_output(aid);
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
  Audit(inst, {AuditKind::kWorkItemPosted, aid, AuditDetail::kNumber, item});
  return Status::OK();
}

void Engine::WithdrawWorkItem(ProcessInstance* inst, uint32_t aid,
                              bool audited) {
  std::optional<org::WorkItemId>& item = inst->work_item(aid);
  if (!item.has_value() || worklists_ == nullptr) return;
  // Best effort: the item may already be done (it should not be, since
  // the activity is still unsettled, but recovery can race).
  (void)worklists_->Cancel(*item);
  if (audited) {
    Audit(inst,
          {AuditKind::kWorkItemCancelled, aid, AuditDetail::kNumber, *item});
  }
  item.reset();
}

Status Engine::MakeReady(ProcessInstance* inst, uint32_t aid) {
  inst->SetState(aid, ActivityState::kReady);
  EXO_RETURN_NOT_OK(Emit(inst, {AuditKind::kActivityReady, aid},
                         wfjournal::EventType::kActivityReady));

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
  // attempt must not leak into the next one. One copy of the plan's
  // preformatted prototype instead of a type-registry walk.
  inst->activity_output(aid) = inst->plan->activity_output(aid);
  EXO_RETURN_NOT_OK(Emit(inst,
                         {AuditKind::kActivityStarted, aid,
                          AuditDetail::kAttempt,
                          static_cast<uint64_t>(attempt)},
                         wfjournal::EventType::kActivityStarted));
  ++stats_.activities_executed;

  if (def.is_process()) {
    // Block: spawn a child fed from this activity's input (ContinueParent).
    EXO_ASSIGN_OR_RETURN(const wf::ProcessDefinition* sub,
                         definitions_->FindProcess(def.subprocess));
    return CreateInstance(sub, &inst->activity_input(aid), inst, aid).status();
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
    AuditOwned(inst, AuditKind::kActivityPending, aid, st.message());
    return Status::OK();
  }
  if (!st.ok()) {
    return HandleProgramFailure(inst, aid, st);
  }

  inst->failures(aid) = 0;
  EXO_RETURN_NOT_OK(Emit(inst,
                         {AuditKind::kActivityFinished, aid,
                          AuditDetail::kNone, 0,
                          Image(inst->activity_output(aid))},
                         wfjournal::EventType::kActivityFinished));
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
  AuditOwned(inst, AuditKind::kProgramFailure, aid, error.ToString());

  const RetryPolicy& policy = PolicyFor(name);
  bool permanent = policy.is_permanent
                       ? policy.is_permanent(error)
                       : RetryPolicy::DefaultIsPermanent(error);
  if (permanent) {
    ++stats_.permanent_failures;
    AuditOwned(inst, AuditKind::kPermanentFailure, aid, error.ToString());
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
  ProcessInstance* root = &instances_[RootIndex(inst)];
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
    Audit(inst, {AuditKind::kRetryBackoff, aid, AuditDetail::kNumber,
                 static_cast<uint64_t>(delay)});
    if (options_.on_backoff) options_.on_backoff(delay);
  }
  // Program crash: reschedule from the beginning (paper §3.3).
  return Reschedule(inst, aid, AuditText::kProgramFailure);
}

Status Engine::QuarantineInstance(ProcessInstance* inst, std::string reason) {
  ProcessInstance* root = &instances_[RootIndex(inst)];
  EXO_RETURN_NOT_OK(JournalAppend(
      {wfjournal::EventType::kInstanceFailed, root->id, {}, {}, false, reason}));
  return ApplyFailed(root, reason);
}

Status Engine::ApplyFailed(ProcessInstance* inst, const std::string& reason) {
  // The instance keeps its journaled data state (a saga's compensation
  // process stays runnable against the committed State image); it just
  // stops navigating.
  EXO_RETURN_NOT_OK(SettleSweep(inst, /*cancel=*/false, reason));
  inst->failed = true;
  inst->failure_reason = reason;
  inst->suspended = false;
  if (!inst->is_child()) {
    ++stats_.instances_failed;
    failed_.push_back({inst->id, reason});
  }
  AuditOwned(inst, AuditKind::kInstanceFailed, kNoActivity, reason);
  return Status::OK();
}

Status Engine::HandleFinished(ProcessInstance* inst, uint32_t aid) {
  const wf::Activity& def = DefOf(inst, aid);
  inst->SetState(aid, ActivityState::kFinished);

  bool exit_ok = true;  // always-true exit condition
  const wf::NavigationPlan::ActivityInfo& info = inst->plan->activity(aid);
  if (!info.trivial_exit) {
    Result<bool> exit_result =
        EvalVmCondition(inst, info.exit_vm, inst->activity_output(aid));
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
    return Reschedule(inst, aid, AuditText::kExitCondition);
  }
  return Terminate(inst, aid);
}

Status Engine::Reschedule(ProcessInstance* inst, uint32_t aid,
                          AuditText reason) {
  inst->SetState(aid, ActivityState::kReady);
  ++stats_.reschedules;
  EXO_RETURN_NOT_OK(Emit(inst,
                         {AuditKind::kActivityRescheduled, aid,
                          AuditDetail::kText, static_cast<uint64_t>(reason)},
                         wfjournal::EventType::kActivityRescheduled));

  if (inst->plan->activity(aid).manual) {
    return PostWorkItem(inst, aid, " rescheduled without worklists");
  }
  Enqueue(inst, aid);
  return Status::OK();
}

Status Engine::Terminate(ProcessInstance* inst, uint32_t aid) {
  inst->SetState(aid, ActivityState::kTerminated);
  EXO_RETURN_NOT_OK(Emit(inst, {AuditKind::kActivityTerminated, aid},
                         wfjournal::EventType::kActivityTerminated));
  EXO_RETURN_NOT_OK(PushData(inst, aid));
  EXO_RETURN_NOT_OK(EvaluateOutgoing(inst, aid, /*all_false=*/false));
  return CheckInstanceCompletion(inst);
}

Status Engine::MarkDead(ProcessInstance* inst, uint32_t aid) {
  inst->SetState(aid, ActivityState::kDead);
  ++stats_.dead_path_terminations;
  EXO_RETURN_NOT_OK(Emit(inst, {AuditKind::kActivityDead, aid},
                         wfjournal::EventType::kActivityDead));
  WithdrawWorkItem(inst, aid);
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

  // Fresh evaluations are delivered only after every sibling connector is
  // journaled, so a successor's join never fires on a partial picture.
  std::vector<std::pair<uint32_t, bool>> fresh;
  fresh.swap(fresh_scratch_);
  fresh.clear();

  // Journals, audits, and queues one fresh evaluation.
  auto record = [&](uint32_t slot, uint32_t cidx, bool value) -> Status {
    inst->out_eval_abs(info.out_eval_base + slot) = value ? 1 : 0;
    ++stats_.connectors_evaluated;
    EXO_RETURN_NOT_OK(Emit(
        inst,
        {value ? AuditKind::kConnectorTrue : AuditKind::kConnectorFalse, aid,
         AuditDetail::kActivity, plan.connector(cidx).to},
        wfjournal::EventType::kConnectorEval));
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
      value = true;  // unconditioned connector
    } else {
      Result<bool> r = EvalVmCondition(inst, ci.cond_vm, out);
      if (r.ok()) {
        value = r.value();
      } else if (options_.condition_error_is_false) {
        value = false;
      } else {
        const wf::ControlConnector& c = connectors[cidx];
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
  EXO_RETURN_NOT_OK(Emit(inst,
                         {AuditKind::kInstanceFinished, kNoActivity,
                          AuditDetail::kNone, 0, Image(inst->output)},
                         wfjournal::EventType::kInstanceFinished));
  if (inst->is_child()) return ContinueParent(inst);
  return Status::OK();
}

Status Engine::ContinueParent(ProcessInstance* child) {
  ProcessInstance* parent = &instances_[child->parent];
  const uint32_t aid = child->parent_activity;
  if (parent->state(aid) != ActivityState::kRunning) {
    return Status::OK();  // already done
  }
  data::Container& out = parent->activity_output(aid);
  out = child->output;
  EXO_RETURN_NOT_OK(Emit(parent,
                         {AuditKind::kActivityFinished, aid,
                          AuditDetail::kBlockChild, AuditRef(child),
                          Image(out)},
                         wfjournal::EventType::kActivityFinished));
  return HandleFinished(parent, aid);
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
  EXO_ASSIGN_OR_RETURN(uint32_t aid, ActivityId(inst, activity));
  if (inst->state(aid) != ActivityState::kReady) {
    return Status::FailedPrecondition("activity " + activity +
                                      " is not ready in " + inst->id);
  }
  EXO_RETURN_NOT_OK(worklists_->Complete(id, person));
  inst->work_item(aid).reset();
  EXO_RETURN_NOT_OK(StartExecution(inst, aid, person));
  return Run();
}

Status Engine::CompleteAsync(const std::string& instance_id,
                             const std::string& activity,
                             const data::Container& output) {
  EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(instance_id));
  EXO_ASSIGN_OR_RETURN(uint32_t aid, ActivityId(inst, activity));
  const wf::Activity& def = DefOf(inst, aid);
  ActivityState s = inst->state(aid);
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
  data::Container& out = inst->activity_output(aid);
  out = output;
  inst->failures(aid) = 0;
  EXO_RETURN_NOT_OK(Emit(inst,
                         {AuditKind::kActivityFinished, aid, AuditDetail::kText,
                          static_cast<uint64_t>(AuditText::kAsync), Image(out)},
                         wfjournal::EventType::kActivityFinished));
  EXO_RETURN_NOT_OK(HandleFinished(inst, aid));
  return Run();
}

Status Engine::ForceFinish(const std::string& instance_id,
                           const std::string& activity,
                           const data::Container& output) {
  EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(instance_id));
  EXO_ASSIGN_OR_RETURN(uint32_t aid, ActivityId(inst, activity));
  const wf::Activity& def = DefOf(inst, aid);
  ActivityState s = inst->state(aid);
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
  WithdrawWorkItem(inst, aid);
  const int32_t attempt = ++inst->attempt(aid);
  // Journaled, not audited: the trail shows the forced finish only.
  EXO_RETURN_NOT_OK(JournalStep(inst,
                                {AuditKind::kActivityStarted, aid,
                                 AuditDetail::kAttempt,
                                 static_cast<uint64_t>(attempt)},
                                wfjournal::EventType::kActivityStarted));
  data::Container& out = inst->activity_output(aid);
  out = output;
  EXO_RETURN_NOT_OK(Emit(inst,
                         {AuditKind::kForcedFinish, aid, AuditDetail::kNone,
                          0, Image(out)},
                         wfjournal::EventType::kActivityFinished));
  EXO_RETURN_NOT_OK(HandleFinished(inst, aid));
  return Run();
}

std::vector<org::Notification> Engine::CheckDeadlines() {
  if (worklists_ == nullptr) return {};
  return worklists_->CheckDeadlines();
}

// --- instance lifecycle control ------------------------------------------------

Result<ProcessInstance*> Engine::LiveTopLevel(const std::string& id,
                                              const char* verb) {
  EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(id));
  if (inst->is_child()) {
    return Status::InvalidArgument(
        std::string(verb) + " the top-level instance, not block child " + id);
  }
  if (inst->finished) {
    return Status::FailedPrecondition("instance " + id + " already finished");
  }
  if (inst->failed) {
    return Status::FailedPrecondition("instance " + id + " is quarantined");
  }
  return inst;
}

Status Engine::SuspendInstance(const std::string& instance_id) {
  EXO_ASSIGN_OR_RETURN(ProcessInstance* inst,
                       LiveTopLevel(instance_id, "suspend"));
  if (inst->suspended) {
    return Status::FailedPrecondition("instance " + instance_id +
                                      " already suspended");
  }
  EXO_RETURN_NOT_OK(
      JournalAppend({wfjournal::EventType::kInstanceSuspended, instance_id}));
  EXO_RETURN_NOT_OK(ApplySuspend(inst));
  return FlushJournal();
}

Status Engine::ApplySuspend(ProcessInstance* inst) {
  inst->suspended = true;
  // Name order: the old runtime kept activities in a name-keyed map, and
  // lifecycle sweeps preserve its iteration order so audit and worklist
  // effects stay byte-identical.
  for (uint32_t aid : inst->plan->ids_by_name()) {
    // Unaudited: ResumeSuspended reposts the item.
    WithdrawWorkItem(inst, aid, /*audited=*/false);
    if (inst->state(aid) == ActivityState::kRunning &&
        inst->child(aid) != kNoSlot) {
      ProcessInstance* child = &instances_[inst->child(aid)];
      if (!child->finished && !child->failed) {
        EXO_RETURN_NOT_OK(ApplySuspend(child));
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
      JournalAppend({wfjournal::EventType::kInstanceResumed, instance_id}));
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
    } else if (s == ActivityState::kRunning && inst->child(aid) != kNoSlot) {
      ProcessInstance* child = &instances_[inst->child(aid)];
      if (child->suspended) EXO_RETURN_NOT_OK(ApplyResume(child));
    }
  }
  return Status::OK();
}

Status Engine::CancelInstance(const std::string& instance_id) {
  EXO_ASSIGN_OR_RETURN(ProcessInstance* inst,
                       LiveTopLevel(instance_id, "cancel"));
  EXO_RETURN_NOT_OK(
      JournalAppend({wfjournal::EventType::kInstanceCancelled, instance_id}));
  EXO_RETURN_NOT_OK(ApplyCancel(inst));
  return FlushJournal();
}

Status Engine::ApplyCancel(ProcessInstance* inst) {
  EXO_RETURN_NOT_OK(SettleSweep(inst, /*cancel=*/true, ""));
  inst->cancelled = true;
  inst->suspended = false;
  inst->finished = true;
  ++stats_.instances_finished;
  Audit(inst, {AuditKind::kInstanceFinished, kNoActivity, AuditDetail::kText,
               static_cast<uint64_t>(AuditText::kCancelled)});
  return Status::OK();
}

Status Engine::SettleSweep(ProcessInstance* inst, bool cancel,
                           const std::string& reason) {
  // Children first, so a block child is settled before its parent slot.
  // Both passes run in name order (see ApplySuspend).
  for (uint32_t aid : inst->plan->ids_by_name()) {
    if (inst->state(aid) != ActivityState::kRunning ||
        inst->child(aid) == kNoSlot) {
      continue;
    }
    ProcessInstance* child = &instances_[inst->child(aid)];
    if (!child->finished && !child->failed) {
      EXO_RETURN_NOT_OK(cancel ? ApplyCancel(child)
                               : ApplyFailed(child, reason));
    }
  }
  for (uint32_t aid : inst->plan->ids_by_name()) {
    if (ProcessInstance::IsSettled(inst->state(aid))) continue;
    WithdrawWorkItem(inst, aid);
    inst->SetState(aid, ActivityState::kDead);
    Audit(inst, {AuditKind::kActivityDead, aid, AuditDetail::kText,
                 static_cast<uint64_t>(cancel ? AuditText::kCancelled
                                              : AuditText::kFailed)});
  }
  return Status::OK();
}

// --- instance migration (work stealing) ------------------------------------------

std::vector<std::string> Engine::instance_order() const {
  std::vector<std::string> ids;
  for (const ProcessInstance& inst : instances_) {
    if (!inst.detached) ids.push_back(inst.id);
  }
  return ids;
}

size_t Engine::unfinished_top_level() const {
  size_t n = 0;
  for (const ProcessInstance& inst : instances_) {
    if (!inst.is_child() && !inst.finished && !inst.failed && !inst.detached) {
      ++n;
    }
  }
  return n;
}

uint32_t Engine::RootIndex(const ProcessInstance* inst) const {
  while (inst->is_child()) inst = &instances_[inst->parent];
  return inst->index;
}

void Engine::CollectFamily(const ProcessInstance* root,
                           std::vector<const ProcessInstance*>* family) const {
  family->push_back(root);
  // Breadth-first, so parents always precede their children in the image
  // list — the order Adopt materializes them in.
  for (size_t i = 0; i < family->size(); ++i) {
    for (const ActivityCold& c : (*family)[i]->cold) {
      if (c.child != kNoSlot) family->push_back(&instances_[c.child]);
    }
  }
}

Result<std::string> Engine::PickDetachable() const {
  if (ready_queue_.empty()) {
    return Status::NotFound("ready queue is empty");
  }
  // The head family stays: the victim is about to execute it, so stealing
  // it would hand over the hottest cache lines and leave the victim idle.
  // Among the rest, prefer the *smallest* family: it is the cheapest to
  // serialize, and a deep block tree signals an expensive computation in
  // flight that is better finished where it lives than re-homed mid-run.
  const uint32_t head = RootIndex(&instances_[ready_queue_.front().first]);
  const ProcessInstance* best = nullptr;
  size_t best_size = 0;
  std::vector<const ProcessInstance*> family;
  for (auto it = ready_queue_.rbegin(); it != ready_queue_.rend(); ++it) {
    const uint32_t index = RootIndex(&instances_[it->first]);
    const ProcessInstance* root = &instances_[index];
    if (index == head || root == best || root->finished || root->failed ||
        root->detached || root->suspended) {
      continue;
    }
    family.clear();
    CollectFamily(root, &family);
    if (best == nullptr || family.size() < best_size) {
      best = root;
      best_size = family.size();
    }
  }
  if (best == nullptr) {
    return Status::NotFound("ready queue holds a single instance family");
  }
  return best->id;
}

void Engine::ReleaseSlot(ProcessInstance* inst) {
  inst->detached = true;
  instance_index_.erase(inst->id);
}

Result<DetachedInstance> Engine::Detach(const std::string& instance_id) {
  // A quarantined family stays put: quarantine is engine-local state
  // (FailedInstances), which migrating would strand.
  EXO_ASSIGN_OR_RETURN(ProcessInstance* root,
                       LiveTopLevel(instance_id, "detach"));
  std::vector<const ProcessInstance*> family;
  CollectFamily(root, &family);
  for (const ProcessInstance* m : family) {
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
  for (const ProcessInstance* m : family) {
    detached.images.push_back(EncodeInstanceImage(*m, instances_));
  }
  // Journal + flush the full image *before* releasing the slots: if the
  // handoff dies between here and the adopter's journal, recovery replays
  // this record into detached_images_ and the fleet re-adopts from there.
  EXO_RETURN_NOT_OK(JournalAppend({wfjournal::EventType::kInstanceDetached,
                                   instance_id, {}, {}, false,
                                   detached.EncodePayload()}));
  EXO_RETURN_NOT_OK(FlushJournal());
  for (const ProcessInstance* m : family) ReleaseSlot(&instances_[m->index]);
  ready_queue_.erase(
      std::remove_if(ready_queue_.begin(), ready_queue_.end(),
                     [this](const std::pair<uint32_t, uint32_t>& e) {
                       return instances_[e.first].detached;
                     }),
      ready_queue_.end());
  ++stats_.instances_detached;
  Audit(root, {AuditKind::kInstanceDetached, kNoActivity,
               AuditDetail::kInstances, family.size()});
  return detached;
}

Status Engine::Adopt(const DetachedInstance& detached) {
  // Materialize first: a rejected image must leave no trace in the
  // journal, or replay would fail on the same bad record forever.
  // Materialization emits no navigation records, so appending the adopt
  // record afterwards still keeps this journal self-contained — every
  // later record for the family lands after it.
  EXO_RETURN_NOT_OK(ApplyAdopt(detached));
  EXO_RETURN_NOT_OK(JournalAppend({wfjournal::EventType::kInstanceAdopted,
                                   detached.root_id, {}, {}, false,
                                   detached.EncodePayload()}));
  return FlushJournal();
}

Status Engine::ApplyAdopt(const DetachedInstance& detached) {
  EXO_ASSIGN_OR_RETURN(std::vector<ProcessInstance*> family,
                       MaterializeImages(detached.images, &detached.root_id));
  ++stats_.instances_stolen;
  Audit(family.front(), {AuditKind::kInstanceAdopted, kNoActivity,
                         AuditDetail::kInstances, family.size()});
  return Status::OK();
}

Result<std::vector<ProcessInstance*>> Engine::MaterializeImages(
    const std::vector<std::string>& encoded, const std::string* adopt_root) {
  // Decode, validate, link and build every member before committing any,
  // so a bad image cannot leave a half-adopted family or a half-restored
  // snapshot behind.
  const uint32_t base = static_cast<uint32_t>(instances_.size());
  std::vector<InstanceImage> images(encoded.size());
  // Id -> list position (member i gets slot base + i): the one map that
  // catches a repeated id and resolves every link an image names.
  std::unordered_map<std::string, uint32_t> member;
  for (uint32_t i = 0; i < encoded.size(); ++i) {
    EXO_ASSIGN_OR_RETURN(images[i], DecodeInstanceImage(encoded[i]));
    const std::string& id = images[i].id;
    if (!member.emplace(id, i).second || instance_index_.count(id) > 0) {
      if (adopt_root == nullptr) {
        return Status::Corruption("snapshot lists instance " + id +
                                  " more than once");
      }
      return Status::FailedPrecondition("instance id collision adopting " +
                                        id + " (fleet id prefixes not set?)");
    }
  }
  if (adopt_root != nullptr &&
      (images.empty() || images[0].id != *adopt_root)) {
    return Status::InvalidArgument("detached payload root mismatch for " +
                                   *adopt_root);
  }
  // Both writers list a parent before its children, so a parent is built
  // before a child links to it, and parent links cannot form a cycle.
  std::vector<ProcessInstance> built(images.size());
  for (uint32_t i = 0; i < images.size(); ++i) {
    const InstanceImage& image = images[i];
    built[i].index = base + i;
    // An adopted family's first image is its only top-level member.
    if (adopt_root != nullptr && image.parent_instance.empty() != (i == 0)) {
      return Status::InvalidArgument(
          "detached family " + *adopt_root + ": " + image.id +
          (i == 0 ? " is its root but names a parent"
                  : " is a second top-level member"));
    }
    const ProcessInstance* parent = nullptr;
    Result<uint32_t> block = 0u;
    if (!image.parent_instance.empty()) {
      auto it = member.find(image.parent_instance);
      if (it != member.end() && it->second < i) parent = &built[it->second];
      if (parent != nullptr) block = ActivityId(parent, image.parent_activity);
      if (parent == nullptr || !block.ok() ||
          !parent->plan->activity(*block).block) {
        return Status::Corruption("image of " + image.id + ": parent " +
                                  image.parent_instance + ", block " +
                                  image.parent_activity +
                                  ", is no block of a member listed before it");
      }
    }
    EXO_RETURN_NOT_OK(BuildFromImage(image, parent, *block, &built[i]));
  }
  // A child link must name the member whose parent link names it back, so
  // each member is reached once and every family walk terminates.
  for (uint32_t i = 0; i < images.size(); ++i) {
    for (uint32_t aid = 0; aid < built[i].activity_count(); ++aid) {
      const std::string& child_id = images[i].activities[aid].child_instance;
      if (child_id.empty()) continue;
      auto it = member.find(child_id);
      if (it == member.end() || built[it->second].parent != base + i ||
          built[it->second].parent_activity != aid) {
        return Status::Corruption("image of " + images[i].id + " links " +
                                  NameOf(&built[i], aid) + " to " + child_id +
                                  ", which is not its block child");
      }
      built[i].child(aid) = base + it->second;
    }
  }
  std::vector<ProcessInstance*> committed;
  committed.reserve(built.size());
  for (ProcessInstance& member : built) {
    committed.push_back(CommitInstance(std::move(member)));
  }
  return committed;
}

Status Engine::BuildFromImage(const InstanceImage& image,
                              const ProcessInstance* parent,
                              uint32_t parent_activity, ProcessInstance* inst) {
  EXO_ASSIGN_OR_RETURN(
      const wf::ProcessDefinition* def,
      definitions_->FindProcessVersion(image.process_name, image.version));
  inst->id = image.id;
  EXO_RETURN_NOT_OK(BuildInstance(def, nullptr, parent, parent_activity, inst,
                                  image.input_image, image.output_image));
  if (image.activities.size() != inst->plan->activity_count()) {
    return Status::Corruption("instance image for " + image.id + " has " +
                              std::to_string(image.activities.size()) +
                              " activities; definition has " +
                              std::to_string(inst->plan->activity_count()));
  }
  // Overlay the imaged state on the fresh runtimes.
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

ProcessInstance* Engine::CommitInstance(ProcessInstance&& inst) {
  const uint32_t index = static_cast<uint32_t>(instances_.size());
  inst.index = index;
  instance_index_.emplace(inst.id, index);
  instances_.push_back(std::move(inst));
  ProcessInstance* p = &instances_[index];
  // Spin-ups count once committed, so a rejected build leaves the
  // counters as they were.
  ++stats_.arena_spinups;
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
  // Collect live images in creation (slot) order, so parents precede
  // their block children — the order ReplaySnapshot rebuilds them in.
  // Finished (including cancelled) top-level families are dropped; that is
  // what makes recovery O(live state). Quarantined families stay: their
  // committed-state image is the saga compensation source. The payload is
  // the migration codec's: one escaped image per line.
  DetachedInstance live;
  for (const ProcessInstance& inst : instances_) {
    // Members of a detached family are dropped too: its husks, and the
    // earlier children of a looped block, which no child link reaches.
    const ProcessInstance& root = instances_[RootIndex(&inst)];
    if (root.detached || (root.finished && !root.failed)) continue;
    live.images.push_back(EncodeInstanceImage(inst, instances_));
  }
  // Order of operations is the crash contract (see
  // docs/specs/snapshot_recovery.md): flush navigation records, rotate so
  // the snapshot is the first record of a fresh segment, append + flush
  // the snapshot, and only then truncate — a crash anywhere in between
  // leaves either a journal that fully replays or a durable snapshot.
  EXO_RETURN_NOT_OK(FlushJournal());
  EXO_RETURN_NOT_OK(journal_->RotateSegment());
  uint64_t snapshot_seq = journal_->size();
  EXO_RETURN_NOT_OK(JournalAppend({wfjournal::EventType::kSnapshot, {}, {}, {},
                                   /*flag=*/false, live.EncodePayload(),
                                   std::to_string(next_instance_)}));
  EXO_RETURN_NOT_OK(FlushJournal());
  ++stats_.snapshots_written;
  records_since_snapshot_ = 0;
  // Retained dangling-handoff images had their re-adoption window (the
  // fleet's post-recovery pass); a checkpoint closes it.
  detached_images_.clear();
  EXO_ASSIGN_OR_RETURN(uint64_t dropped,
                       journal_->TruncateBefore(snapshot_seq));
  stats_.records_truncated += dropped;
  AuditOwned(nullptr, AuditKind::kCheckpoint, kNoActivity,
             std::to_string(live.images.size()) + " live, " +
                 std::to_string(dropped) + " truncated");
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
      // Payload: "v<version>:<name>"; a block child's `to` and `activity`
      // name its parent and the parent's block activity.
      const size_t colon = r.payload.find(':');
      uint64_t version = 0;
      if (colon == std::string::npos || r.payload[0] != 'v' ||
          !ParseNumber(std::string_view(r.payload).substr(1, colon - 1),
                       &version) ||
          version > INT32_MAX) {
        return Status::Corruption("malformed INSTANCE_START payload: " +
                                  r.payload);
      }
      EXO_ASSIGN_OR_RETURN(
          const wf::ProcessDefinition* def,
          definitions_->FindProcessVersion(r.payload.substr(colon + 1),
                                           static_cast<int>(version)));
      if (instance_index_.count(r.instance) > 0) {
        return Status::Corruption("duplicate INSTANCE_START for " + r.instance);
      }
      ProcessInstance* parent = nullptr;
      uint32_t block = 0;
      if (!r.to.empty()) {
        EXO_ASSIGN_OR_RETURN(parent, MutableInstance(r.to));
        EXO_ASSIGN_OR_RETURN(block, ActivityId(parent, r.activity));
      }
      ProcessInstance inst;
      inst.id = r.instance;
      EXO_RETURN_NOT_OK(
          BuildInstance(def, nullptr, parent, block, &inst, r.extra));
      ProcessInstance* p = CommitInstance(std::move(inst));
      ++stats_.instances_started;
      NoteRecoveredId(r.instance);
      if (parent != nullptr) parent->child(block) = p->index;
      return Status::OK();
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
    default:
      break;
  }

  // Every other record is a step of one instance, and READY through
  // CONNECTOR name one of its activities: both resolve once, here.
  EXO_ASSIGN_OR_RETURN(ProcessInstance* inst, MutableInstance(r.instance));
  uint32_t aid = kNoActivity;
  if (r.type >= EventType::kActivityReady &&
      r.type <= EventType::kConnectorEval) {
    EXO_ASSIGN_OR_RETURN(aid, ActivityId(inst, r.activity));
  }
  switch (r.type) {
    case EventType::kActivityReady:
    case EventType::kActivityRescheduled:
      inst->SetState(aid, ActivityState::kReady);
      return Status::OK();
    case EventType::kActivityStarted: {
      uint64_t attempt = 0;
      if (!ParseNumber(r.payload, &attempt) || attempt > INT32_MAX) {
        return Status::Corruption("bad attempt in STARTED record: " +
                                  r.payload);
      }
      inst->SetState(aid, ActivityState::kRunning);
      inst->attempt(aid) = static_cast<int32_t>(attempt);
      inst->activity_output(aid) = inst->plan->activity_output(aid);
      // A looped block's earlier child is finished; this attempt's child
      // relinks on its INSTANCE_START, or the block re-runs on resume.
      if (inst->plan->activity(aid).block) inst->child(aid) = kNoSlot;
      return Status::OK();
    }
    case EventType::kActivityFinished:
      MaterializeActivityOutput(inst, aid);
      EXO_RETURN_NOT_OK(inst->activity_output(aid).Deserialize(r.payload));
      inst->SetState(aid, ActivityState::kFinished);
      return Status::OK();
    case EventType::kActivityTerminated:
      inst->SetState(aid, ActivityState::kTerminated);
      inst->failures(aid) = 0;
      // Re-derive the (volatile) data pushes from the journaled output.
      return PushData(inst, aid);
    case EventType::kActivityDead:
      inst->SetState(aid, ActivityState::kDead);
      return Status::OK();
    case EventType::kConnectorEval: {
      for (uint32_t cidx : inst->plan->activity(aid).out_control) {
        if (inst->definition->control_connectors()[cidx].to != r.to) continue;
        const wf::NavigationPlan::ConnectorInfo& ci =
            inst->plan->connector(cidx);
        inst->out_eval(ci.from, ci.out_slot) = r.flag ? 1 : 0;
        inst->in_eval(ci.to, ci.in_slot) = r.flag ? 1 : 0;
        return Status::OK();
      }
      return Status::Corruption("journaled connector " + r.activity + " -> " +
                                r.to + " not in definition of " +
                                inst->definition->name());
    }
    case EventType::kInstanceFinished:
      EXO_RETURN_NOT_OK(inst->output.Deserialize(r.payload));
      inst->finished = true;
      ++stats_.instances_finished;
      return Status::OK();
    case EventType::kInstanceSuspended:
      return ApplySuspend(inst);
    case EventType::kInstanceResumed:
      return ApplyResume(inst);
    case EventType::kInstanceCancelled:
      return ApplyCancel(inst);
    case EventType::kInstanceFailed:
      return ApplyFailed(inst, r.payload);
    default:
      break;
  }
  return Status::Corruption("unknown journal record type");
}

Status Engine::ReplaySnapshot(const wfjournal::Record& r) {
  uint64_t counter = 0;  // extra: the next-instance counter, may be empty
  if (!r.extra.empty() && !ParseNumber(r.extra, &counter)) {
    return Status::Corruption("bad instance counter in snapshot record seq " +
                              std::to_string(r.seq) + ": " + r.extra);
  }
  // A checkpoint supersedes everything replayed so far. Normally nothing
  // precedes it — the record opens its segment and truncation dropped the
  // rest — but a crash between the snapshot flush and its truncation
  // leaves the prefix behind, and replaying through it must land in the
  // same state as replaying the truncated journal.
  instances_.clear();
  instance_index_.clear();
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

  std::vector<std::string> images;
  if (!DetachedInstance::DecodeImages(r.payload, &images)) {
    return Status::Corruption("bad image escape in snapshot record seq " +
                              std::to_string(r.seq));
  }
  EXO_ASSIGN_OR_RETURN(std::vector<ProcessInstance*> restored,
                       MaterializeImages(images, /*adopt_root=*/nullptr));
  for (ProcessInstance* p : restored) {
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
  if (counter > next_instance_) next_instance_ = counter;
  return Status::OK();
}

void Engine::NoteRecoveredId(const std::string& id) {
  // Restore the id counter past any "<prefix>wf-N" id seen. Foreign
  // prefixes (adopted instances) never collide with ours, so only our own
  // prefix advances the counter.
  std::string_view local = id;
  uint64_t n = 0;
  if (StartsWith(local, options_.instance_id_prefix)) {
    local.remove_prefix(options_.instance_id_prefix.size());
    if (StartsWith(local, "wf-") && ParseNumber(local.substr(3), &n) &&
        n + 1 > next_instance_) {
      next_instance_ = n + 1;
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
        Audit(inst, {AuditKind::kRecoveryResumed, aid, AuditDetail::kText,
                     static_cast<uint64_t>(AuditText::kReady)});
        if (info.manual) {
          EXO_RETURN_NOT_OK(
              PostWorkItem(inst, aid, " recovered without worklists"));
        } else {
          Enqueue(inst, aid);
        }
        break;
      }
      case ActivityState::kRunning: {
        if (info.block && inst->child(aid) != kNoSlot) {
          ProcessInstance* child = &instances_[inst->child(aid)];
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
        Audit(inst, {AuditKind::kRecoveryResumed, aid, AuditDetail::kText,
                     static_cast<uint64_t>(AuditText::kWasRunning)});
        EXO_RETURN_NOT_OK(Reschedule(inst, aid, AuditText::kRecovery));
        break;
      }
      case ActivityState::kFinished: {
        // Crash between FINISHED and the exit-condition outcome.
        Audit(inst, {AuditKind::kRecoveryResumed, aid, AuditDetail::kText,
                     static_cast<uint64_t>(AuditText::kWasFinished)});
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
