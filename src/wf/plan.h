// NavigationPlan: a compile-once/navigate-many index of a
// ProcessDefinition.
//
// The navigator's inner loop (ready-queue dispatch, connector evaluation,
// join decisions, data pushes) used to resolve every topology query
// through string-keyed maps on the definition. The plan assigns each
// activity a dense integer id (its index in activities()) and precomputes
// every adjacency list, join fan-in, connector slot, and start set as
// plain vectors of indices, so a navigation step touches only
// integer-indexed arrays. String names survive solely at API boundaries,
// audit events, and journal records — the on-disk format is unchanged.
//
// The plan holds *indices only*, never pointers into the definition, so a
// copied definition can safely share its predecessor's plan as long as
// the topology is identical (definitions are immutable after
// validation; the Add* mutators invalidate any cached plan).

#ifndef EXOTICA_WF_PLAN_H_
#define EXOTICA_WF_PLAN_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "expr/vm.h"

namespace exotica::wf {

class ProcessDefinition;

/// \brief Byte offsets of the packed per-instance *hot block* (see
/// docs/specs/instance_layout.md).
///
/// The per-activity hot fields live in one contiguous byte block: a dense
/// state byte per activity, the ready-queue dedup byte, the two
/// connector-eval planes, and 4-aligned int32 attempt/failures arrays.
/// The layout is fixed per plan, so an InstanceArena can preformat the
/// whole block as a single memcpy-able image. Cold per-activity state
/// (containers, work items, child links) stays out of the block entirely.
struct HotLayout {
  uint32_t state_base = 0;     ///< n bytes: ActivityState per activity
  uint32_t enqueued_base = 0;  ///< n bytes: ready-queue dedup bitmap
  uint32_t in_eval_base = 0;   ///< in_eval_total int8 slots
  uint32_t out_eval_base = 0;  ///< out_eval_total int8 slots
  uint32_t attempt_base = 0;   ///< n int32 (4-aligned)
  uint32_t failures_base = 0;  ///< n int32
  uint32_t size = 0;           ///< total block size in bytes

  static constexpr HotLayout Compute(uint32_t n, uint32_t in_total,
                                     uint32_t out_total) {
    HotLayout l;
    l.state_base = 0;
    l.enqueued_base = n;
    l.in_eval_base = 2 * n;
    l.out_eval_base = 2 * n + in_total;
    l.attempt_base = (2 * n + in_total + out_total + 3u) & ~3u;
    l.failures_base = l.attempt_base + 4 * n;
    l.size = l.failures_base + 4 * n;
    return l;
  }
};

// Layout regressions fail at compile time: the byte planes are dense and
// adjacent, the int32 planes 4-aligned, and the block never pads beyond
// the alignment gap.
static_assert(HotLayout::Compute(4, 3, 5).enqueued_base == 4);
static_assert(HotLayout::Compute(4, 3, 5).in_eval_base == 8);
static_assert(HotLayout::Compute(4, 3, 5).out_eval_base == 11);
static_assert(HotLayout::Compute(4, 3, 5).attempt_base == 16);
static_assert(HotLayout::Compute(4, 3, 5).failures_base == 32);
static_assert(HotLayout::Compute(4, 3, 5).size == 48);
static_assert(HotLayout::Compute(1, 0, 0).attempt_base % 4 == 0);
static_assert(HotLayout::Compute(1000, 999, 999).attempt_base % 4 == 0);
static_assert(HotLayout::Compute(0, 0, 0).size == 0);

/// \brief Immutable compiled navigation index for one ProcessDefinition.
class NavigationPlan {
 public:
  /// Sentinel target id for data connectors writing the process output.
  static constexpr uint32_t kProcessOutput =
      std::numeric_limits<uint32_t>::max();

  /// \brief Per-activity adjacency and dispatch flags.
  struct ActivityInfo {
    /// Outgoing / incoming control connector indices, insertion order
    /// (identical to ProcessDefinition::OutgoingControl / IncomingControl).
    std::vector<uint32_t> out_control;
    std::vector<uint32_t> in_control;
    /// Data connector indices whose source is this activity's output.
    std::vector<uint32_t> out_data;
    /// Join fan-in (== in_control.size(), cached for the join decision).
    uint32_t join_fan_in = 0;
    /// Offsets of this activity's connector-evaluation slots inside the
    /// instance-wide eval planes (prefix sums of the in/out adjacency
    /// sizes; see ProcessInstance::in_eval_abs).
    uint32_t in_eval_base = 0;
    uint32_t out_eval_base = 0;
    bool manual = false;       ///< StartMode::kManual
    bool block = false;        ///< ActivityKind::kProcess
    bool or_join = false;      ///< JoinKind::kOr
    bool trivial_exit = true;  ///< exit condition is always-true
    /// True when some outgoing connector must tree-walk its condition
    /// (non-trivial, non-otherwise, and not VM-compiled) — the only case
    /// the sweep needs an expr::ContainerResolver.
    bool needs_resolver = false;
    /// True when any outgoing connector carries a non-trivial condition
    /// (the sweep reads the activity's output container).
    bool has_cond_out = false;
    /// Compiled exit-condition program (index into vm_program()), or -1
    /// when the condition is trivial or couldn't be bound (tree-walk).
    int32_t exit_vm = -1;
  };

  /// \brief Per-control-connector endpoints and dedup slots.
  struct ConnectorInfo {
    uint32_t from = 0;      ///< source activity id
    uint32_t to = 0;        ///< target activity id
    uint32_t out_slot = 0;  ///< position in from's out_control list
    uint32_t in_slot = 0;   ///< position in to's in_control list
    bool is_otherwise = false;
    bool trivial = true;    ///< always-true transition condition
    /// Compiled transition-condition program (index into vm_program()),
    /// or -1 when trivial/OTHERWISE or unbindable (tree-walk fallback).
    int32_t cond_vm = -1;
  };

  /// \brief Per-data-connector target (source is implied by out_data /
  /// input_data membership).
  struct DataTarget {
    uint32_t to = kProcessOutput;  ///< activity id, or kProcessOutput
  };

  /// Compiles `definition`. The definition must be a DAG (enforced by
  /// ValidateProcess before registration). When `types` is given (the
  /// registry the definition was validated against), every non-trivial
  /// exit/transition condition is additionally lowered to a
  /// CompiledCondition bound to its activity's output-container layout;
  /// without a registry — the lazy plan() path for hand-built definitions
  /// — no programs are compiled and the runtime tree-walks every
  /// condition.
  static NavigationPlan Compile(const ProcessDefinition& definition,
                                const data::TypeRegistry* types = nullptr);

  uint32_t activity_count() const {
    return static_cast<uint32_t>(activities_.size());
  }
  const ActivityInfo& activity(uint32_t id) const { return activities_[id]; }
  const ConnectorInfo& connector(uint32_t index) const {
    return connectors_[index];
  }
  const DataTarget& data_target(uint32_t index) const { return data_[index]; }

  /// Activity ids with no incoming control connectors, declaration order.
  const std::vector<uint32_t>& start_activities() const { return start_; }

  /// Data connector indices sourced at the process input container,
  /// insertion order.
  const std::vector<uint32_t>& input_data() const { return input_data_; }

  /// Topological order of activity ids (Kahn over declaration order —
  /// matches ProcessDefinition::TopologicalOrder exactly).
  const std::vector<uint32_t>& topological_order() const { return topo_; }

  /// Activity ids sorted by activity name (the iteration order of the old
  /// name-keyed runtime map; lifecycle sweeps preserve it for
  /// deterministic audit ordering).
  const std::vector<uint32_t>& ids_by_name() const { return by_name_; }

  /// Total incoming / outgoing eval slots across all activities — the
  /// sizes of the instance-wide eval planes.
  uint32_t in_eval_total() const { return in_eval_total_; }
  uint32_t out_eval_total() const { return out_eval_total_; }

  /// Byte offsets of the packed per-instance hot block (computed from the
  /// activity count and eval totals at plan build).
  const HotLayout& hot() const { return hot_; }

  /// Compiled condition program `index` (an ActivityInfo::exit_vm or
  /// ConnectorInfo::cond_vm value >= 0).
  const expr::CompiledCondition& vm_program(int32_t index) const {
    return vm_programs_[static_cast<size_t>(index)];
  }
  /// Number of compiled condition programs (0 when compiled without a
  /// TypeRegistry).
  size_t vm_program_count() const { return vm_programs_.size(); }

 private:
  std::vector<ActivityInfo> activities_;
  std::vector<ConnectorInfo> connectors_;
  std::vector<DataTarget> data_;
  std::vector<uint32_t> start_;
  std::vector<uint32_t> input_data_;
  std::vector<uint32_t> topo_;
  std::vector<uint32_t> by_name_;
  std::vector<expr::CompiledCondition> vm_programs_;
  uint32_t in_eval_total_ = 0;
  uint32_t out_eval_total_ = 0;
  HotLayout hot_;
};

}  // namespace exotica::wf

#endif  // EXOTICA_WF_PLAN_H_
