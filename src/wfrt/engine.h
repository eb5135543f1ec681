// The workflow engine: instantiates process templates and navigates them
// (paper §3.2's execution rules, including dead path elimination, exit
// condition rescheduling, blocks, manual activities via worklists, and
// §3.3's forward recovery from a navigation journal).
//
// Navigation runs on the definition's compiled NavigationPlan: activities
// are dense integer ids, the ready queue holds (instance index, activity
// id) pairs deduplicated by a per-instance bitmap, and string names appear
// only at API boundaries, audit events, and journal records (the on-disk
// journal format is unchanged). Journal writes are group-committed: the
// attached journal may buffer appends, and the engine flushes at every
// navigation quiescence point (Run() exit and each public mutation API).

#ifndef EXOTICA_WFRT_ENGINE_H_
#define EXOTICA_WFRT_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "org/directory.h"
#include "org/worklist.h"
#include "wf/process.h"
#include "wfjournal/journal.h"
#include "wfrt/arena.h"
#include "wfrt/audit.h"
#include "wfrt/instance.h"
#include "wfrt/migrate.h"
#include "wfrt/program.h"

namespace exotica::wfrt {

/// \brief How program crashes are retried before an instance is
/// quarantined.
///
/// A program crash (a ProgramFn returning a non-OK, non-Pending Status) is
/// the paper's §3.3 restart case: the activity is rescheduled and re-run
/// from the beginning. The policy bounds that loop three ways — per
/// activity, per instance, and by error class — and spaces retries with
/// exponential backoff. Exhausting any bound quarantines the instance
/// (terminal failed state) instead of poisoning the whole Run().
struct RetryPolicy {
  /// Consecutive crashes tolerated per activity before quarantine;
  /// 0 = unlimited.
  int max_attempts = 64;

  /// Total crash retries allowed per top-level instance, shared with its
  /// block children; 0 = unlimited. Read from the engine-wide policy
  /// (EngineOptions::retry), not per-activity overrides.
  int instance_retry_budget = 0;

  /// Backoff before the k-th retry of an activity:
  ///   min(max_backoff, initial * multiplier^(k-1)), +/- jitter.
  /// 0 initial = retry immediately (the default; keeps traces stable).
  Micros initial_backoff_micros = 0;
  double backoff_multiplier = 2.0;
  Micros max_backoff_micros = 60 * 1000 * 1000;

  /// Jitter as a fraction of the delay in [0, 1]: the delay is scaled by
  /// a factor drawn deterministically from [1 - jitter, 1 + jitter] keyed
  /// off EngineOptions::retry_jitter_seed + (instance, activity, attempt).
  double jitter = 0.0;

  /// Classifies a program error as permanent: no retry, immediate
  /// quarantine. Null uses DefaultIsPermanent.
  std::function<bool(const Status&)> is_permanent;

  /// Default classification: InvalidArgument, Unsupported, and
  /// ValidationError are permanent (retrying a malformed request cannot
  /// succeed); everything else — Internal, IOError, Timeout, ... — is
  /// transient.
  static bool DefaultIsPermanent(const Status& error);
};

/// \brief Engine tuning knobs.
struct EngineOptions {
  /// Cap on exit-condition reschedules per activity; 0 = unlimited.
  /// FlowMark loops forever; the cap turns runaway loops into errors in
  /// tests and benches.
  int max_exit_retries = 100000;

  /// Crash-retry policy for program activities (replaces the old flat
  /// max_program_failures counter).
  RetryPolicy retry;

  /// Per-activity policy overrides, keyed by activity name; activities
  /// not listed use `retry`.
  std::map<std::string, RetryPolicy> activity_retry;

  /// Seed for deterministic backoff jitter.
  uint64_t retry_jitter_seed = 42;

  /// Invoked with each computed backoff delay. The engine is synchronous
  /// and never sleeps on its own: production binds this to a sleeper,
  /// tests advance a ManualClock. Null = the delay is only recorded
  /// (stats + audit).
  std::function<void(Micros)> on_backoff;

  /// Evaluate unevaluable transition conditions (unset data, type errors)
  /// as false instead of failing navigation.
  bool condition_error_is_false = false;

  /// Record audit events at all (§3.3 monitoring/accounting). FlowMark
  /// sets an audit level per process — full, condensed, or none — and
  /// this is "none": no events are recorded, CompactTrace and the
  /// accounting queries see an empty trail, and the monitoring observer
  /// never fires. The journal (the recovery source of truth) is
  /// unaffected. Navigation-throughput benchmarks turn this off so they
  /// measure navigation rather than trail bookkeeping.
  bool audit_enabled = true;

  /// Bound on retained audit events; 0 = unbounded (default). When set,
  /// the trail keeps at least the most recent `max_audit_events` events
  /// (and at most twice that, amortized), so long-running fleets do not
  /// grow memory without bound.
  size_t max_audit_events = 0;

  /// Prepended to every generated instance id ("wf-N" becomes
  /// "<prefix>wf-N"). Fleets with work stealing enabled give each engine a
  /// distinct prefix so an instance id stays unique after migration.
  std::string instance_id_prefix;

  /// Committed journal records between automatic snapshot checkpoints
  /// (kSnapshot record + truncation of the journal behind it; see
  /// docs/specs/snapshot_recovery.md). Checked at every navigation
  /// quiescence point (Run()/RunSlice() exit). 0 = never automatic;
  /// Engine::Checkpoint() always works explicitly.
  uint64_t snapshot_interval = 0;

  /// Clock for worklist deadlines and audit timestamps.
  const Clock* clock = nullptr;  ///< defaults to SystemClock
};

/// \brief Aggregate navigation counters.
struct EngineStats {
  uint64_t instances_started = 0;
  uint64_t instances_finished = 0;
  uint64_t activities_executed = 0;
  uint64_t connectors_evaluated = 0;
  uint64_t dead_path_terminations = 0;
  uint64_t reschedules = 0;
  uint64_t program_failures = 0;
  uint64_t retries = 0;            ///< crash retries granted by the policy
  uint64_t backoff_waits = 0;      ///< retries that carried a non-zero delay
  uint64_t backoff_wait_micros = 0;///< total delay across backoff_waits
  uint64_t permanent_failures = 0; ///< errors classified permanent
  uint64_t instances_failed = 0;   ///< top-level instances quarantined
  uint64_t instances_detached = 0; ///< families migrated away (victim side)
  uint64_t instances_stolen = 0;   ///< families adopted (thief side)
  uint64_t steals_failed = 0;      ///< steal attempts that found nothing
  uint64_t arena_spinups = 0;      ///< instances spun up from an arena image
  uint64_t arena_shared_hits = 0;  ///< spin-ups served from a fleet-shared arena
  uint64_t vm_condition_evals = 0;   ///< conditions run on the compiled VM
  /// Conditions run on the tree-walk: those the compiler could not bind,
  /// and every condition of a plan built without a TypeRegistry.
  uint64_t tree_condition_evals = 0;
  /// Always 0. Outgoing sweeps once ran as fused step programs; the
  /// interpreted sweep is the only one left. The field stays so readers
  /// built against it (the production benchmark) keep compiling.
  uint64_t step_program_dispatches = 0;
  uint64_t steal_slice_shrinks = 0;  ///< adaptive slice halvings (fleet)
  /// Steal-victim selections where the cost-aware score picked a
  /// different victim than plain deepest-queue would have (fleet).
  uint64_t steal_victim_cost_picks = 0;
  uint64_t snapshots_written = 0;    ///< checkpoint records appended
  uint64_t records_truncated = 0;    ///< journal records dropped behind snapshots
  uint64_t recovery_records_replayed = 0; ///< records Recover() streamed
  /// Always 0, like step_program_dispatches: the native step functions
  /// are gone, and the field stays for the same readers.
  uint64_t native_step_dispatches = 0;
};

/// \brief The navigator.
///
/// Single-threaded and deterministic: automatic activities execute in FIFO
/// ready order; every trace is reproducible given deterministic programs.
/// Concurrency in the modelled world (parallel saga branches, alternative
/// paths) is expressed by graph structure, not threads.
class Engine {
 public:
  /// `definitions` and `programs` must outlive the engine.
  Engine(const wf::DefinitionStore* definitions, ProgramRegistry* programs,
         EngineOptions options = {});

  /// Attaches a navigation journal. Must happen before any StartProcess.
  /// Every navigation step is appended before it is applied; buffered
  /// appends are flushed at every navigation quiescence point.
  Status AttachJournal(wfjournal::Journal* journal);

  /// Attaches the organization; enables manual activities and worklists.
  Status AttachOrganization(const org::Directory* directory);

  // --- driving --------------------------------------------------------------

  /// Creates an instance of `process_name`. `input` (optional) must match
  /// the process input container type. Returns the instance id. The
  /// instance does not advance until Run().
  Result<std::string> StartProcess(const std::string& process_name,
                                   const data::Container* input = nullptr);

  /// Executes automatic activities until quiescent: every instance is
  /// finished or blocked on manual work items.
  Status Run();

  /// Bounded Run(): pops at most `max_steps` ready-queue entries, then
  /// flushes the journal and reports whether the queue drained. The fleet's
  /// work-stealing driver runs engines in slices so steal requests are
  /// served at bounded latency; `max_steps <= 0` behaves like Run().
  Status RunSlice(int max_steps, bool* quiescent);

  /// Convenience: StartProcess + Run; fails if the instance stalls on
  /// manual work. Returns the instance id.
  Result<std::string> RunToCompletion(const std::string& process_name,
                                      const data::Container* input = nullptr);

  // --- inspection -----------------------------------------------------------

  Result<const ProcessInstance*> FindInstance(const std::string& id) const;
  bool IsFinished(const std::string& id) const;
  bool IsCancelled(const std::string& id) const;
  bool IsSuspended(const std::string& id) const;
  /// True if the instance was quarantined (terminal failed state).
  bool IsFailed(const std::string& id) const;

  /// \brief A quarantined top-level instance.
  struct FailedInstance {
    std::string id;
    std::string reason;
  };

  /// Top-level instances quarantined so far, in failure order. Their
  /// journaled state survives, so a saga's compensation process can still
  /// be run against the committed-state image.
  const std::vector<FailedInstance>& FailedInstances() const {
    return failed_;
  }
  /// Output container of a finished instance.
  Result<data::Container> OutputOf(const std::string& id) const;
  Result<wf::ActivityState> StateOf(const std::string& id,
                                    const std::string& activity) const;

  const AuditTrail& audit() const { return audit_; }
  const EngineStats& stats() const { return stats_; }

  /// Live monitoring hook (§3.3): called synchronously for every audit
  /// event as navigation produces it. Keep the callback cheap; it runs on
  /// the navigation path. Pass nullptr to detach.
  using AuditObserver = std::function<void(const AuditEvent&)>;
  void SetObserver(AuditObserver observer) {
    observer_ = std::move(observer);
  }

  /// Instance ids in creation order.
  const std::vector<std::string>& instance_order() const {
    return instance_order_;
  }

  // --- manual work ----------------------------------------------------------

  org::WorklistService* worklists() { return worklists_.get(); }

  /// Claims a posted work item for `person` (withdraws it everywhere else).
  Status Claim(org::WorkItemId id, const std::string& person);

  /// Runs the claimed item's program as `person`, completes the item, and
  /// navigates onward (Run()).
  Status ExecuteWorkItem(org::WorkItemId id, const std::string& person);

  /// Completion report for an asynchronous activity: a program that
  /// returned Status::Pending left its activity running; the external
  /// system reports the outcome here. Journals the result and navigates
  /// onward (Run()).
  Status CompleteAsync(const std::string& instance_id,
                       const std::string& activity,
                       const data::Container& output);

  /// User intervention (§3.3: "The user can ... force it to finish"):
  /// completes a ready activity with the given output container without
  /// running its program, then navigates onward.
  Status ForceFinish(const std::string& instance_id,
                     const std::string& activity,
                     const data::Container& output);

  /// Raises deadline notifications for overdue work items.
  std::vector<org::Notification> CheckDeadlines();

  // --- instance lifecycle control (§3.3 user intervention) -------------------

  /// Pauses navigation of a top-level instance (and its block children):
  /// ready automatic activities stop being dispatched and posted work
  /// items are withdrawn. Journaled, so a suspension survives a crash.
  Status SuspendInstance(const std::string& instance_id);

  /// Resumes a suspended instance: ready activities are re-dispatched and
  /// manual work items reposted. Follow with Run().
  Status ResumeSuspended(const std::string& instance_id);

  /// User-initiated termination of a top-level instance: every unsettled
  /// activity (recursively through block children) is terminated via dead
  /// path, work items are withdrawn, and the instance finishes in the
  /// `cancelled` state without continuing into successors.
  Status CancelInstance(const std::string& instance_id);

  // --- instance migration (work stealing) ------------------------------------

  /// Picks a top-level instance suitable for Detach: the tail-most ready
  /// family that is not the one at the head of the queue, so the victim
  /// always keeps work. NotFound when the queue holds fewer than two
  /// distinct families.
  Result<std::string> PickDetachable() const;

  /// Detaches a top-level instance and its block-child subtree for
  /// migration to another engine. Journals the full family image
  /// (kInstanceDetached) and flushes before releasing it, so a handoff
  /// that crashes mid-flight is recoverable from this journal; the local
  /// slots become dead husks (ready-queue entries purged, ids unindexed).
  /// Refuses block children, finished/quarantined/already-detached
  /// instances, posted work items, and in-flight asynchronous programs.
  Result<DetachedInstance> Detach(const std::string& instance_id);

  /// Adopts a detached family: journals the image (kInstanceAdopted, so
  /// this journal replays self-contained), materializes every member via
  /// the spin-up arena, overlays the imaged state, and enqueues ready
  /// automatic activities. Fails without touching engine state on
  /// malformed images, unknown definitions, or id collisions.
  Status Adopt(const DetachedInstance& detached);

  /// Depth of the ready queue — the load metric workers publish to the
  /// fleet's steal coordinator.
  size_t ready_depth() const { return ready_queue_.size(); }

  /// Top-level instances that are neither finished, failed, nor detached.
  size_t unfinished_top_level() const;

  /// Counts a steal attempt that came back empty (stats only).
  void NoteStealFailed() { ++stats_.steals_failed; }

  /// Counts an adaptive steal-slice halving (stats only; the fleet's
  /// worker loop owns the slice itself).
  void NoteStealSliceShrink() { ++stats_.steal_slice_shrinks; }

  /// Counts a cost-aware victim selection that diverged from plain
  /// deepest-queue (stats only; the fleet's worker loop picks victims).
  void NoteStealCostPick() { ++stats_.steal_victim_cost_picks; }

  /// EWMA of observed automatic-program execution cost in microseconds —
  /// the per-engine activity-cost signal the fleet's cost-aware steal
  /// victim picking multiplies into queue depth. 0 until the first
  /// sampled execution.
  double mean_activity_cost_micros() const { return cost_ewma_micros_; }

  /// Registers a fleet-owned spin-up arena for `def`. Shared arenas are
  /// immutable once built and consulted before the engine's private cache,
  /// so every engine in a fleet spins instances of `def` up from one image
  /// instead of each building its own. `arena` must outlive the engine.
  void ShareArena(const wf::ProcessDefinition* def, const InstanceArena* arena) {
    shared_arenas_[def] = arena;
  }

  /// Surrenders the retained image of an instance this engine detached
  /// before a crash, as recovered from the journal. The fleet re-adopts a
  /// dangling handoff from here when no engine's journal shows the adopt.
  Result<DetachedInstance> TakeDetachedImage(const std::string& root_id);

  /// Root ids of every retained dangling-handoff image (journal-replay
  /// kInstanceDetached records with no matching adopt seen yet) — the
  /// fleet's post-recovery pass resolves these.
  std::vector<std::string> RetainedDetachedRoots() const;

  // --- checkpointing ----------------------------------------------------------

  /// Writes a snapshot checkpoint: rotates the journal to a fresh segment,
  /// appends one kSnapshot record carrying the image of every live
  /// instance family (finished/cancelled top-level trees are dropped —
  /// that is what makes recovery O(live state)), flushes, and truncates
  /// every journal segment wholly behind the snapshot. Also drops retained
  /// dangling-handoff images — their re-adoption window (the fleet's
  /// post-recovery pass) is over. Requires an attached journal.
  Status Checkpoint();

  // --- recovery ---------------------------------------------------------------

  /// Rebuilds all instances from the attached journal (replay), then
  /// resumes every unfinished instance from the exact point of failure:
  /// in-flight program activities are rescheduled from the beginning
  /// (at-least-once), interrupted navigation steps (connector evaluation,
  /// exit checks, joins) are completed. Call on a fresh engine; follow
  /// with Run(). Replay streams records through Journal::Visit, so the
  /// journal is never copied wholesale into memory.
  Status Recover();

 private:
  // Journaling helper; no-op without a journal. Call sites with expensive
  // payloads (container serialization) guard on journal_ themselves so the
  // payload is never built when no journal is attached.
  Status JournalAppend(wfjournal::EventType type, const std::string& instance,
                       const std::string& activity = "",
                       const std::string& to = "", bool flag = false,
                       std::string payload = "", std::string extra = "");

  /// Flushes group-committed journal writes; no-op without a journal.
  Status FlushJournal();

  void Audit(AuditKind kind, const std::string& instance,
             const std::string& activity = "", std::string detail = "");

  std::string NewInstanceId();
  Result<ProcessInstance*> MutableInstance(const std::string& id);

  /// Copy-from-prototype container construction: one registry walk per
  /// type name per engine, then O(fields) copies.
  Result<data::Container> NewContainer(const std::string& type_name);

  /// Creates (and journals) a new instance; readies its start activities.
  Result<std::string> CreateInstance(const wf::ProcessDefinition* definition,
                                     const data::Container* input,
                                     const std::string& parent_instance,
                                     const std::string& parent_activity);

  /// Allocates runtime state for every activity (one copy of the arena's
  /// hot block plus a default-constructed cold sidecar) and applies
  /// process-input data connectors.
  Status InitializeRuntimes(ProcessInstance* inst);

  /// Cold containers start default-constructed; these materialize them
  /// from the arena's prototypes on first touch. No-ops on
  /// already-materialized containers.
  void MaterializeActivityInput(ProcessInstance* inst, uint32_t aid);
  void MaterializeActivityOutput(ProcessInstance* inst, uint32_t aid);

  /// Lazily built per-definition spin-up image.
  Result<const InstanceArena*> ArenaFor(const wf::ProcessDefinition* def);

  /// Root + block-child subtree, parents before children.
  Status CollectFamily(ProcessInstance* root,
                       std::vector<ProcessInstance*>* family);

  /// Decode + validate + materialize a detached family; shared by Adopt
  /// and kInstanceAdopted replay (journaling is the caller's business).
  /// Every member is built before any is committed, so a rejected family
  /// leaves the engine's instances and ready queue untouched.
  Status ApplyAdopt(const DetachedInstance& detached);

  /// Rebuilds one family member from its image into `inst` via the arena
  /// and overlays the imaged state. Touches no instance, queue, or
  /// counter state of the engine.
  Status BuildFromImage(const InstanceImage& image, ProcessInstance* inst);

  /// Indexes a built instance, counts its spin-up, and (outside recovery)
  /// enqueues its ready activities. Every instance enters the engine
  /// here. Returns the committed slot.
  ProcessInstance* CommitInstance(ProcessInstance inst);

  /// Marks a family member's slot as a dead husk: detached flag, purged
  /// ready-queue entries, id unindexed.
  void ReleaseSlot(ProcessInstance* inst);

  Status ReadyStartActivities(ProcessInstance* inst);
  Status MakeReady(ProcessInstance* inst, uint32_t aid);
  void Enqueue(ProcessInstance* inst, uint32_t aid);

  /// Posts a work item for a manual activity; `no_worklists_error` is the
  /// site-specific message when no organization is attached.
  Status PostWorkItem(ProcessInstance* inst, uint32_t aid,
                      const char* no_worklists_error);

  /// Drains the ready queue (the body of Run(), sans journal flush);
  /// `limit > 0` bounds the number of entries popped.
  Status Drain(int limit);

  /// Runs one ready activity (program call or block spawn).
  Status StartExecution(ProcessInstance* inst, uint32_t aid,
                        const std::string& person);

  /// Crash-retry decision for a failed program attempt: retry (with
  /// backoff) under the activity's RetryPolicy, or quarantine the
  /// instance. Returns OK in both cases — navigation of other instances
  /// continues.
  Status HandleProgramFailure(ProcessInstance* inst, uint32_t aid,
                              const Status& error);

  /// Policy for `activity` (per-activity override or the engine default).
  const RetryPolicy& PolicyFor(const std::string& activity) const;

  /// Deterministic backoff delay before the `failures`-th retry.
  Micros BackoffDelay(const RetryPolicy& policy, int failures,
                      const std::string& instance,
                      const std::string& activity) const;

  /// Quarantines the top-level instance owning `inst`: journals the
  /// failure, settles every unsettled activity (recursively through block
  /// children), withdraws work items, and records the instance as failed.
  Status QuarantineInstance(ProcessInstance* inst, std::string reason);

  /// Post-execution: exit condition check → terminate or reschedule.
  Status HandleFinished(ProcessInstance* inst, uint32_t aid);

  Status Reschedule(ProcessInstance* inst, uint32_t aid,
                    const std::string& reason);

  Status Terminate(ProcessInstance* inst, uint32_t aid);

  /// Dead path elimination for one activity.
  Status MarkDead(ProcessInstance* inst, uint32_t aid);

  /// Evaluates this activity's not-yet-evaluated outgoing control
  /// connectors (all false when `all_false`), journals them, and delivers
  /// the signals.
  Status EvaluateOutgoing(ProcessInstance* inst, uint32_t aid, bool all_false);

  /// Evaluates compiled condition program `index` of `inst`'s plan
  /// against `input`, counting it in vm_condition_evals.
  Result<bool> EvalVmCondition(const ProcessInstance* inst, int32_t index,
                               const data::Container& input);

  Status DeliverSignal(ProcessInstance* inst, uint32_t connector_index,
                       bool value);

  /// Applies the join decision for a waiting activity from its recorded
  /// incoming evaluations. Used on signal delivery and during recovery.
  Status ApplyJoin(ProcessInstance* inst, uint32_t aid);

  /// Pushes data connectors whose source is `aid`.
  Status PushData(ProcessInstance* inst, uint32_t aid);

  Status CheckInstanceCompletion(ProcessInstance* inst);

  /// Parent-side continuation when a block child finishes.
  Status ContinueParent(ProcessInstance* child);

  // Lifecycle helpers shared by the public API and journal replay.
  Status ApplySuspend(ProcessInstance* inst);
  Status ApplyResume(ProcessInstance* inst);
  Status ApplyCancel(ProcessInstance* inst);
  Status ApplyFailed(ProcessInstance* inst, const std::string& reason);

  /// Checkpoint() when snapshot_interval committed records have
  /// accumulated since the last snapshot; no-op otherwise.
  Status MaybeCheckpoint();

  // Recovery passes.
  Status ReplayRecord(const wfjournal::Record& record);
  /// kSnapshot replay: resets the engine and materializes the snapshot's
  /// images (the record supersedes everything replayed before it).
  Status ReplaySnapshot(const wfjournal::Record& record);
  Status ResumeAfterReplay(ProcessInstance* inst);

  /// Advances next_instance_ past a recovered "<prefix>wf-N" id.
  void NoteRecoveredId(const std::string& id);

  const wf::DefinitionStore* definitions_;
  ProgramRegistry* programs_;
  EngineOptions options_;
  const Clock* clock_;

  wfjournal::Journal* journal_ = nullptr;
  const org::Directory* directory_ = nullptr;
  std::unique_ptr<org::WorklistService> worklists_;

  /// Instances in creation order; deque for stable addresses. Never
  /// erased, so a ready-queue (instance index, activity id) pair is always
  /// resolvable in O(1).
  std::deque<ProcessInstance> instances_;
  std::map<std::string, uint32_t> instance_index_;
  std::vector<std::string> instance_order_;
  uint64_t next_instance_ = 1;

  std::deque<std::pair<uint32_t, uint32_t>> ready_queue_;

  std::unordered_map<std::string, data::Container> container_protos_;
  std::unordered_map<const wf::ProcessDefinition*, InstanceArena> arenas_;
  /// Fleet-shared arenas (ShareArena), checked before the private cache.
  std::unordered_map<const wf::ProcessDefinition*, const InstanceArena*>
      shared_arenas_;

  /// Images of families this engine detached, retained during journal
  /// replay for dangling-handoff recovery (TakeDetachedImage).
  std::map<std::string, DetachedInstance> detached_images_;

  /// Pooled scratch for the outgoing sweep's fresh-evaluation list, so a
  /// sweep does not allocate. Swapped out for the duration of a sweep, so
  /// the reentrant DeliverSignal → ApplyJoin → MarkDead → sweep chain never
  /// aliases an in-use buffer; a nested sweep just starts from an empty
  /// pool.
  std::vector<std::pair<uint32_t, bool>> fresh_scratch_;

  AuditTrail audit_;
  AuditObserver observer_;
  EngineStats stats_;
  std::vector<FailedInstance> failed_;
  bool recovering_ = false;

  /// EWMA of automatic-program execution cost (mean_activity_cost_micros).
  /// Sampled every 8th execution so the hot path pays two clock reads
  /// only occasionally.
  double cost_ewma_micros_ = 0.0;
  uint64_t cost_sample_tick_ = 0;

  /// Committed records since the last snapshot (drives snapshot_interval).
  uint64_t records_since_snapshot_ = 0;
  /// Seq of the snapshot record seen during the current/last replay, if
  /// any — Recover() finishes an interrupted truncation behind it.
  uint64_t replay_snapshot_seq_ = 0;
  bool replay_saw_snapshot_ = false;
};

}  // namespace exotica::wfrt

#endif  // EXOTICA_WFRT_ENGINE_H_
