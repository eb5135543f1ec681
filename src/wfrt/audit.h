// Audit trail: the engine's observable execution record (paper §3.3 lists
// monitoring/accounting among the workflow features transaction models
// lack). Tests verify the paper's appendix traces against this trail.
//
// The engine keeps its events in an AuditRing: fixed-size records with no
// strings, rendered into an AuditTrail of AuditEvents only when the trail
// is read (docs/specs/event_spine.md).

#ifndef EXOTICA_WFRT_AUDIT_H_
#define EXOTICA_WFRT_AUDIT_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"

namespace exotica::wf {
class ProcessDefinition;
}  // namespace exotica::wf

namespace exotica::wfrt {

enum class AuditKind : int {
  kInstanceStarted,
  kActivityReady,
  kActivityStarted,
  kActivityFinished,
  kActivityTerminated,
  kActivityRescheduled,
  kActivityDead,
  kConnectorTrue,
  kConnectorFalse,
  kProgramFailure,
  kInstanceFinished,
  kWorkItemPosted,
  kWorkItemCancelled,
  kForcedFinish,
  kRecoveryResumed,
  kActivityPending,
  kRetryBackoff,       ///< crash retry delayed; detail = wait in micros
  kPermanentFailure,   ///< program error classified permanent (no retry)
  kInstanceFailed,     ///< instance quarantined; detail = reason
  kInstanceDetached,   ///< instance migrated away; detail = family size
  kInstanceAdopted,    ///< instance migrated in; detail = family size
  kCheckpoint,         ///< snapshot written; detail = live/truncated counts
};

const char* AuditKindName(AuditKind kind);

struct AuditEvent {
  Micros at = 0;
  AuditKind kind;
  std::string instance;
  std::string activity;  ///< or connector source
  std::string detail;    ///< connector target, attempt, etc.

  /// Compact form, e.g. "T1:started", "T1->T2:false", "saga:finished".
  std::string Compact() const;
};

/// The audit retention rule, shared by AuditTrail and AuditRing: with a
/// bound, a store holding `size` events drops its oldest ones once it
/// reaches twice `max_events`, keeping the newest `max_events`. Returns
/// how many to drop (0 = none; `max_events` 0 = unbounded).
inline size_t AuditOverflow(size_t size, size_t max_events) {
  return max_events > 0 && size >= 2 * max_events ? size - max_events : 0;
}

/// \brief Append-only event list, optionally bounded.
///
/// With a bound set, the trail behaves as a ring over the most recent
/// events: it retains at least `max_events` and at most twice that, with
/// the oldest half dropped in one amortized erase (AuditOverflow) — long
/// fleet runs keep constant memory without paying a per-event shift.
class AuditTrail {
 public:
  void Add(AuditEvent event) {
    events_.push_back(std::move(event));
    if (size_t drop = AuditOverflow(events_.size(), max_events_)) {
      events_.erase(events_.begin(),
                    events_.begin() + static_cast<ptrdiff_t>(drop));
    }
  }
  const std::vector<AuditEvent>& events() const { return events_; }
  void Clear() { events_.clear(); }

  /// Bounds retained events as described above; 0 (default) = unbounded.
  /// Accounting queries see only retained events.
  void set_max_events(size_t n) { max_events_ = n; }
  size_t max_events() const { return max_events_; }

  /// Compact strings for one instance, in order. `kinds` empty = all kinds.
  std::vector<std::string> CompactTrace(
      const std::string& instance,
      const std::vector<AuditKind>& kinds = {}) const;

  // --- accounting queries (paper §3.3: monitoring / accounting) -------------

  /// Per-activity accounting for one instance.
  struct ActivitySummary {
    int executions = 0;        ///< started events
    int reschedules = 0;
    Micros active_micros = 0;  ///< sum of started→finished spans
    Micros first_ready = -1;
    Micros settled_at = -1;    ///< terminated / dead timestamp
  };

  /// Summaries keyed by activity name. NotFound if the instance never
  /// appears in the trail.
  Result<std::map<std::string, ActivitySummary>> Summarize(
      const std::string& instance) const;

  /// Wall-clock from instance start to finish. FailedPrecondition if the
  /// instance has not finished (in this trail).
  Result<Micros> InstanceMakespan(const std::string& instance) const;

 private:
  std::vector<AuditEvent> events_;
  size_t max_events_ = 0;
};

/// Fixed reason words a step can carry in its `aux` (AuditDetail::kText).
/// The reschedule reasons are also the journal payload of
/// kActivityRescheduled.
enum class AuditText : uint8_t {
  kProgramFailure,
  kExitCondition,
  kRecovery,
  kAsync,
  kCancelled,
  kFailed,
  kReady,
  kWasRunning,
  kWasFinished,
};

const char* AuditTextString(AuditText text);

/// How a ring event's detail is rendered from its `aux`.
enum class AuditDetail : uint8_t {
  kNone,        ///< ""
  kNumber,      ///< aux in decimal (work-item id, backoff micros)
  kAttempt,     ///< "attempt=<aux>"
  kActivity,    ///< name of activity aux (a connector's target)
  kProcess,     ///< the instance's process name
  kBlockChild,  ///< "block child <id of name-table ref aux>"
  kInstances,   ///< "<aux> instances"
  kText,        ///< AuditTextString(aux)
  kOwned,       ///< free text kept beside the ring (errors, reasons)
};

/// \brief One audit event as the ring keeps it: no strings, 32 bytes.
struct RingEvent {
  static constexpr uint32_t kNone = UINT32_MAX;

  Micros at = 0;
  uint64_t aux = 0;
  uint32_t instance = kNone;  ///< AuditRing name-table ref
  uint32_t activity = kNone;  ///< activity id in the instance's definition
  uint8_t kind = 0;           ///< AuditKind
  AuditDetail detail = AuditDetail::kNone;
};
static_assert(sizeof(RingEvent) == 32, "RingEvent is the ring's stride");

/// \brief The engine's audit store: POD events plus an instance-name
/// table, rendered into an AuditTrail only when read.
///
/// Retention is AuditTrail's rule (AuditOverflow): with a bound, at least
/// `max_events` and fewer than twice that; 0 = unbounded. The name table
/// lives as long as the ring, so an event stays renderable after the
/// engine forgets its instance (a snapshot replay resets every slot).
class AuditRing {
 public:
  /// Bounds retained events; the rendered trail reports the same bound.
  void set_max_events(size_t n) {
    max_events_ = n;
    trail_.set_max_events(n);
  }

  /// Adds an instance to the name table; events refer to it by the
  /// returned ref. `definition` names its activities and process, and must
  /// outlive the ring.
  uint32_t AddName(std::string id, const wf::ProcessDefinition* definition) {
    names_.push_back({std::move(id), definition});
    return static_cast<uint32_t>(names_.size() - 1);
  }

  void Push(const RingEvent& event) {
    events_.push_back(event);
    if (size_t drop = AuditOverflow(events_.size(), max_events_)) Drop(drop);
  }

  /// Pushes a kOwned event whose detail is `text`.
  void PushOwned(RingEvent event, std::string text) {
    event.detail = AuditDetail::kOwned;
    event.aux = owned_base_ + owned_.size();
    owned_.push_back(std::move(text));
    Push(event);
  }

  /// The most recent event; the ring must not be empty.
  const RingEvent& back() const { return events_.back(); }

  /// Renders one retained event.
  AuditEvent Render(const RingEvent& event) const;

  /// The retained events, rendered afresh on every call; the reference
  /// stays valid until the next Push or trail().
  const AuditTrail& trail() const;

 private:
  struct Name {
    std::string id;
    const wf::ProcessDefinition* definition;
  };

  /// Drops the oldest `n` events, and the owned texts among them.
  void Drop(size_t n);

  std::vector<RingEvent> events_;
  size_t max_events_ = 0;
  std::vector<Name> names_;
  /// Texts of retained kOwned events, oldest first; owned_[0] is text
  /// number owned_base_ (an event's aux).
  std::deque<std::string> owned_;
  uint64_t owned_base_ = 0;

  /// What the last trail() rendered. It holds fewer than twice its bound,
  /// so rendering into it drops nothing.
  mutable AuditTrail trail_;
};

}  // namespace exotica::wfrt

#endif  // EXOTICA_WFRT_AUDIT_H_
