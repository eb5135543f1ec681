// Runtime state of process instances (see docs/specs/instance_layout.md).
//
// Per-activity hot state lives in one contiguous byte block (`hot`) laid
// out by the plan's HotLayout — dense state bytes, enqueued bytes, both
// eval planes, and 4-aligned int32 attempt/failures arrays — plus a cold
// sidecar (`cold`) holding the containers, work items, and child links
// that navigation only touches when an activity actually starts or posts
// work. The state sweep then reads a dense byte array. Block links are
// slots; string names appear only at API boundaries and when the journal,
// an image or the audit trail is rendered (docs/specs/event_spine.md).

#ifndef EXOTICA_WFRT_INSTANCE_H_
#define EXOTICA_WFRT_INSTANCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "data/container.h"
#include "org/worklist.h"
#include "wf/plan.h"
#include "wf/process.h"

namespace exotica::wfrt {

// The packed state plane stores one byte per activity; a wider enum would
// silently truncate.
static_assert(static_cast<int>(wf::ActivityState::kDead) <= 0xFF,
              "ActivityState must fit the packed one-byte state plane");
// A zeroed hot block must mean "pristine": every activity kWaiting.
static_assert(static_cast<int>(wf::ActivityState::kWaiting) == 0,
              "packed spin-up relies on kWaiting being the zero state");

/// The block link of a top-level instance or an unspawned block activity.
inline constexpr uint32_t kNoSlot = UINT32_MAX;

/// \brief Cold per-activity sidecar: everything the sweep never reads.
/// Containers start default-constructed (no layout, no refcount traffic
/// at spin-up) and are materialized from the plan's prototypes on first
/// touch — a pristine container and a default-constructed one serialize
/// identically, so images stay byte-identical either way.
struct ActivityCold {
  data::Container input;
  data::Container output;
  std::optional<org::WorkItemId> work_item;
  /// Slot of the block child this activity last spawned.
  uint32_t child = kNoSlot;
};

/// \brief One executing process.
struct ProcessInstance {
  std::string id;
  /// Dense index of this instance in the engine (creation order).
  uint32_t index = 0;
  /// Ref of `id` in the engine's audit name table, added when the
  /// instance is first audited (UINT32_MAX until then).
  uint32_t audit_ref = UINT32_MAX;
  const wf::ProcessDefinition* definition = nullptr;
  /// The definition's compiled plan (owned by the definition): topology,
  /// condition programs, and the spin-up image the instance was built
  /// from and materializes cold containers from.
  const wf::NavigationPlan* plan = nullptr;

  data::Container input;
  data::Container output;

  /// The contiguous hot block (plan->hot() offsets) and the cold sidecar.
  /// `hl` is a by-value copy of the plan's HotLayout so the accessors
  /// below read plane bases without chasing through the plan.
  wf::HotLayout hl;
  std::vector<uint8_t> hot;
  std::vector<ActivityCold> cold;

  /// Count of activities in kTerminated or kDead — the instance is
  /// finished when every activity is settled, and the counter makes that
  /// check O(1) instead of a full sweep per termination.
  uint32_t settled = 0;

  bool finished = false;
  bool cancelled = false;  ///< finished via user termination
  bool failed = false;     ///< quarantined: retry budget exhausted or
                           ///< permanent program failure
  bool suspended = false;  ///< navigation paused by the user
  bool detached = false;   ///< migrated to another engine (work stealing);
                           ///< the slot is a dead husk kept so ready-queue
                           ///< entries and block links stay resolvable

  /// Why the instance was quarantined (empty unless failed).
  std::string failure_reason;

  /// Crash retries consumed by this instance, charged against
  /// RetryPolicy::instance_retry_budget.
  int retries_used = 0;

  /// Parent link for block children: the parent's slot and the id of the
  /// block activity that runs this child; `parent_instance` is the
  /// parent's id, kept for the journal and images only.
  uint32_t parent = kNoSlot;
  uint32_t parent_activity = 0;
  std::string parent_instance;

  bool is_child() const { return parent != kNoSlot; }

  uint32_t activity_count() const { return static_cast<uint32_t>(cold.size()); }

  /// The state plane opens the hot block (HotLayout::state_base is 0).
  wf::ActivityState state(uint32_t aid) const {
    return static_cast<wf::ActivityState>(hot[aid]);
  }

  /// Transitions activity `id` to `next`, maintaining the settled counter.
  /// Every state write (navigation and journal replay) goes through here.
  void SetState(uint32_t id, wf::ActivityState next) {
    wf::ActivityState prev = state(id);
    if (IsSettled(prev)) --settled;
    if (IsSettled(next)) ++settled;
    hot[id] = static_cast<uint8_t>(next);
  }

  static bool IsSettled(wf::ActivityState s) {
    return s == wf::ActivityState::kTerminated || s == wf::ActivityState::kDead;
  }

  int32_t& attempt(uint32_t aid) { return hot_i32(hl.attempt_base)[aid]; }
  int32_t attempt(uint32_t aid) const { return hot_i32(hl.attempt_base)[aid]; }
  int32_t& failures(uint32_t aid) { return hot_i32(hl.failures_base)[aid]; }
  int32_t failures(uint32_t aid) const {
    return hot_i32(hl.failures_base)[aid];
  }

  /// Cold-side accessors. Containers may still be unmaterialized
  /// (default-constructed, `type_name().empty()`) — the engine
  /// materializes before any typed use.
  data::Container& activity_input(uint32_t aid) { return cold[aid].input; }
  const data::Container& activity_input(uint32_t aid) const {
    return cold[aid].input;
  }
  data::Container& activity_output(uint32_t aid) { return cold[aid].output; }
  const data::Container& activity_output(uint32_t aid) const {
    return cold[aid].output;
  }
  std::optional<org::WorkItemId>& work_item(uint32_t aid) {
    return cold[aid].work_item;
  }
  const std::optional<org::WorkItemId>& work_item(uint32_t aid) const {
    return cold[aid].work_item;
  }
  uint32_t& child(uint32_t aid) { return cold[aid].child; }
  uint32_t child(uint32_t aid) const { return cold[aid].child; }

  /// Ready-queue dedup byte for activity `aid`.
  uint8_t& enqueued_flag(uint32_t aid) { return hot[hl.enqueued_base + aid]; }

  /// Absolute-slot accessors into the connector-eval planes (slot indices
  /// as precomputed by the plan's per-activity bases). -1 = not yet
  /// evaluated, 0 = false, 1 = true.
  int8_t& in_eval_abs(uint32_t idx) {
    return reinterpret_cast<int8_t&>(hot[hl.in_eval_base + idx]);
  }
  int8_t in_eval_abs(uint32_t idx) const {
    return static_cast<int8_t>(hot[hl.in_eval_base + idx]);
  }
  int8_t& out_eval_abs(uint32_t idx) {
    return reinterpret_cast<int8_t&>(hot[hl.out_eval_base + idx]);
  }
  int8_t out_eval_abs(uint32_t idx) const {
    return static_cast<int8_t>(hot[hl.out_eval_base + idx]);
  }

  /// Per-activity-slot accessors for activity `aid`'s connector
  /// evaluations.
  int8_t& in_eval(uint32_t aid, uint32_t slot) {
    return in_eval_abs(plan->activity(aid).in_eval_base + slot);
  }
  int8_t in_eval(uint32_t aid, uint32_t slot) const {
    return in_eval_abs(plan->activity(aid).in_eval_base + slot);
  }
  int8_t& out_eval(uint32_t aid, uint32_t slot) {
    return out_eval_abs(plan->activity(aid).out_eval_base + slot);
  }
  int8_t out_eval(uint32_t aid, uint32_t slot) const {
    return out_eval_abs(plan->activity(aid).out_eval_base + slot);
  }

  /// Counts activities currently in `state` — a dense byte scan.
  size_t CountInState(wf::ActivityState s) const {
    const uint8_t b = static_cast<uint8_t>(s);
    const uint32_t count = activity_count();
    size_t n = 0;
    for (uint32_t i = 0; i < count; ++i) n += (hot[i] == b);
    return n;
  }

  /// The process is finished when every activity is terminated or dead
  /// (paper §3.2: "The process is considered finished when all its
  /// activities are in the terminated state").
  bool AllSettled() const { return settled == activity_count(); }

 private:
  int32_t* hot_i32(uint32_t base) {
    return reinterpret_cast<int32_t*>(hot.data() + base);
  }
  const int32_t* hot_i32(uint32_t base) const {
    return reinterpret_cast<const int32_t*>(hot.data() + base);
  }
};

}  // namespace exotica::wfrt

#endif  // EXOTICA_WFRT_INSTANCE_H_
