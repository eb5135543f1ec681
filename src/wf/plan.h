// NavigationPlan: the executable process template of one registered
// ProcessDefinition, compiled once at registration and only read after.
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
// The plan also carries everything else an engine needs to run the
// definition: every non-trivial condition as a slot-bound VM program
// (expr/vm.h), and the spin-up image an instance starts from — the
// process and activity container prototypes and the preformatted hot
// block. One prototype per container type serves both, so the condition
// programs bind against the very layouts instances run on. The plan is
// immutable, so every engine of a fleet reads it concurrently.
//
// The plan holds *indices and prototypes only*, never pointers into the
// definition, so a copied definition can safely share its predecessor's
// plan as long as the topology is identical (definitions are immutable
// after validation; the Add* mutators drop the plan).

#ifndef EXOTICA_WF_PLAN_H_
#define EXOTICA_WF_PLAN_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.h"
#include "data/container.h"
#include "data/types.h"
#include "expr/vm.h"

namespace exotica::wf {

class ProcessDefinition;

/// \brief Byte offsets of the packed per-instance *hot block* (see
/// docs/specs/instance_layout.md).
///
/// The per-activity hot fields live in one contiguous byte block: a dense
/// state byte per activity, the ready-queue dedup byte, the two
/// connector-eval planes, and 4-aligned int32 attempt/failures arrays.
/// The layout is fixed per plan, so the plan preformats the whole block as
/// a single memcpy-able image (NavigationPlan::hot_image). Cold
/// per-activity state (containers, work items, child links) stays out of
/// the block entirely.
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
    /// (the outgoing list is ProcessDefinition::OutgoingControl's).
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
    /// True when any outgoing connector carries a non-trivial condition
    /// (the sweep reads the activity's output container).
    bool has_cond_out = false;
    /// Compiled exit-condition program (index into vm_program()), or -1
    /// when the condition is trivial.
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
    /// or -1 when trivial or OTHERWISE.
    int32_t cond_vm = -1;
  };

  /// \brief Per-data-connector target (source is implied by out_data /
  /// input_data membership).
  struct DataTarget {
    uint32_t to = kProcessOutput;  ///< activity id, or kProcessOutput
  };

  /// Compiles `definition` against `types`, the registry it was validated
  /// under; DefinitionStore::AddProcess is the one caller. The definition
  /// must be a DAG (enforced by ValidateProcess). Every non-trivial
  /// exit/transition condition is lowered to a CompiledCondition bound to
  /// its activity's output-container layout, and the spin-up image is
  /// preformatted. Fails when a container type cannot be instantiated or
  /// a condition cannot be bound — both rejected by validation first.
  static Result<NavigationPlan> Compile(const ProcessDefinition& definition,
                                        const data::TypeRegistry& types);

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
  /// Number of compiled condition programs: one per non-trivial exit or
  /// transition condition.
  size_t vm_program_count() const { return vm_programs_.size(); }

  // --- spin-up image -------------------------------------------------------
  // Building an instance (start, journal replay, adoption, snapshot
  // restore) copies the process containers and the hot block from here;
  // cold activity containers are copied from here on first touch.

  /// Process input/output container prototypes.
  const data::Container& input_prototype() const { return input_proto_; }
  const data::Container& output_prototype() const { return output_proto_; }

  /// Activity `aid`'s input/output container prototypes — what cold
  /// containers materialize from, and what a fresh attempt's output
  /// container is copied from.
  const data::Container& activity_input(uint32_t aid) const {
    return activity_inputs_[aid];
  }
  const data::Container& activity_output(uint32_t aid) const {
    return activity_outputs_[aid];
  }

  /// The preformatted hot block (hot() layout): zeroed state / enqueued /
  /// attempt / failures planes, connector-eval planes filled with -1 (not
  /// yet evaluated). Spin-up is one copy of this.
  const std::vector<uint8_t>& hot_image() const { return hot_image_; }

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
  data::Container input_proto_;
  data::Container output_proto_;
  std::vector<data::Container> activity_inputs_;
  std::vector<data::Container> activity_outputs_;
  std::vector<uint8_t> hot_image_;
};

}  // namespace exotica::wf

#endif  // EXOTICA_WF_PLAN_H_
