#include "wfrt/audit.h"

#include <algorithm>

#include "wf/process.h"

namespace exotica::wfrt {

const char* AuditKindName(AuditKind kind) {
  switch (kind) {
    case AuditKind::kInstanceStarted: return "instance-started";
    case AuditKind::kActivityReady: return "ready";
    case AuditKind::kActivityStarted: return "started";
    case AuditKind::kActivityFinished: return "finished";
    case AuditKind::kActivityTerminated: return "terminated";
    case AuditKind::kActivityRescheduled: return "rescheduled";
    case AuditKind::kActivityDead: return "dead";
    case AuditKind::kConnectorTrue: return "connector-true";
    case AuditKind::kConnectorFalse: return "connector-false";
    case AuditKind::kProgramFailure: return "program-failure";
    case AuditKind::kInstanceFinished: return "instance-finished";
    case AuditKind::kWorkItemPosted: return "workitem-posted";
    case AuditKind::kWorkItemCancelled: return "workitem-cancelled";
    case AuditKind::kForcedFinish: return "forced-finish";
    case AuditKind::kRecoveryResumed: return "recovery-resumed";
    case AuditKind::kActivityPending: return "pending";
    case AuditKind::kRetryBackoff: return "retry-backoff";
    case AuditKind::kPermanentFailure: return "permanent-failure";
    case AuditKind::kInstanceFailed: return "instance-failed";
    case AuditKind::kInstanceDetached: return "instance-detached";
    case AuditKind::kInstanceAdopted: return "instance-adopted";
    case AuditKind::kCheckpoint: return "checkpoint";
  }
  return "?";
}

const char* AuditTextString(AuditText text) {
  switch (text) {
    case AuditText::kProgramFailure: return "program-failure";
    case AuditText::kExitCondition: return "exit-condition";
    case AuditText::kRecovery: return "recovery";
    case AuditText::kAsync: return "async";
    case AuditText::kCancelled: return "cancelled";
    case AuditText::kFailed: return "failed";
    case AuditText::kReady: return "ready";
    case AuditText::kWasRunning: return "was running";
    case AuditText::kWasFinished: return "was finished";
  }
  return "?";
}

void AuditRing::Drop(size_t n) {
  size_t owned = 0;
  for (size_t i = 0; i < n; ++i) {
    owned += events_[i].detail == AuditDetail::kOwned;
  }
  events_.erase(events_.begin(), events_.begin() + static_cast<ptrdiff_t>(n));
  owned_.erase(owned_.begin(), owned_.begin() + static_cast<ptrdiff_t>(owned));
  owned_base_ += owned;
}

AuditEvent AuditRing::Render(const RingEvent& event) const {
  AuditEvent out;
  out.at = event.at;
  out.kind = static_cast<AuditKind>(event.kind);
  const Name* name =
      event.instance == RingEvent::kNone ? nullptr : &names_[event.instance];
  if (name != nullptr) out.instance = name->id;
  if (event.activity != RingEvent::kNone) {
    out.activity = name->definition->activities()[event.activity].name;
  }
  switch (event.detail) {
    case AuditDetail::kNone:
      break;
    case AuditDetail::kNumber:
      out.detail = std::to_string(event.aux);
      break;
    case AuditDetail::kAttempt:
      out.detail = "attempt=" + std::to_string(event.aux);
      break;
    case AuditDetail::kActivity:
      out.detail = name->definition->activities()[event.aux].name;
      break;
    case AuditDetail::kProcess:
      out.detail = name->definition->name();
      break;
    case AuditDetail::kBlockChild:
      out.detail = "block child " + names_[event.aux].id;
      break;
    case AuditDetail::kInstances:
      out.detail = std::to_string(event.aux) + " instances";
      break;
    case AuditDetail::kText:
      out.detail = AuditTextString(static_cast<AuditText>(event.aux));
      break;
    case AuditDetail::kOwned:
      out.detail = owned_[event.aux - owned_base_];
      break;
  }
  return out;
}

const AuditTrail& AuditRing::trail() const {
  trail_.Clear();
  for (const RingEvent& event : events_) trail_.Add(Render(event));
  return trail_;
}

std::string AuditEvent::Compact() const {
  switch (kind) {
    case AuditKind::kConnectorTrue:
      return activity + "->" + detail + ":true";
    case AuditKind::kConnectorFalse:
      return activity + "->" + detail + ":false";
    case AuditKind::kInstanceStarted:
    case AuditKind::kInstanceFinished:
    case AuditKind::kInstanceFailed:
    case AuditKind::kInstanceDetached:
    case AuditKind::kInstanceAdopted:
      return instance + ":" + AuditKindName(kind);
    default:
      return activity + ":" + AuditKindName(kind);
  }
}

Result<std::map<std::string, AuditTrail::ActivitySummary>>
AuditTrail::Summarize(const std::string& instance) const {
  std::map<std::string, ActivitySummary> out;
  std::map<std::string, Micros> started_at;
  bool seen = false;
  for (const AuditEvent& e : events_) {
    if (e.instance != instance) continue;
    seen = true;
    switch (e.kind) {
      case AuditKind::kActivityReady: {
        ActivitySummary& s = out[e.activity];
        if (s.first_ready < 0) s.first_ready = e.at;
        break;
      }
      case AuditKind::kActivityStarted:
        ++out[e.activity].executions;
        started_at[e.activity] = e.at;
        break;
      case AuditKind::kActivityFinished:
      case AuditKind::kForcedFinish: {
        auto it = started_at.find(e.activity);
        if (it != started_at.end()) {
          out[e.activity].active_micros += e.at - it->second;
          started_at.erase(it);
        }
        break;
      }
      case AuditKind::kActivityRescheduled:
        ++out[e.activity].reschedules;
        break;
      case AuditKind::kActivityTerminated:
      case AuditKind::kActivityDead:
        out[e.activity].settled_at = e.at;
        break;
      default:
        break;
    }
  }
  if (!seen) {
    return Status::NotFound("no audit events for instance " + instance);
  }
  return out;
}

Result<Micros> AuditTrail::InstanceMakespan(const std::string& instance) const {
  Micros start = -1;
  for (const AuditEvent& e : events_) {
    if (e.instance != instance) continue;
    if (e.kind == AuditKind::kInstanceStarted) start = e.at;
    if (e.kind == AuditKind::kInstanceFinished && start >= 0) {
      return e.at - start;
    }
  }
  if (start < 0) {
    return Status::NotFound("no audit events for instance " + instance);
  }
  return Status::FailedPrecondition("instance " + instance +
                                    " has not finished");
}

std::vector<std::string> AuditTrail::CompactTrace(
    const std::string& instance, const std::vector<AuditKind>& kinds) const {
  std::vector<std::string> out;
  for (const AuditEvent& e : events_) {
    if (e.instance != instance) continue;
    if (!kinds.empty() &&
        std::find(kinds.begin(), kinds.end(), e.kind) == kinds.end()) {
      continue;
    }
    out.push_back(e.Compact());
  }
  return out;
}

}  // namespace exotica::wfrt
