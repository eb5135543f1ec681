// ProcessDefinition: the static description of a workflow process — an
// acyclic directed graph of activities joined by control and data
// connectors (paper §3.2).

#ifndef EXOTICA_WF_PROCESS_H_
#define EXOTICA_WF_PROCESS_H_

#include <cassert>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "wf/activity.h"
#include "wf/connector.h"
#include "wf/plan.h"

namespace exotica::wf {

/// \brief An immutable-after-validation process template.
///
/// Use ProcessBuilder to construct one; direct mutation is available for
/// the FDL importer and tests. Validate() (see validate.h) must pass
/// before the definition is registered for execution.
class ProcessDefinition {
 public:
  ProcessDefinition() = default;
  explicit ProcessDefinition(std::string name, int version = 1)
      : name_(std::move(name)), version_(version) {}

  const std::string& name() const { return name_; }
  int version() const { return version_; }
  const std::string& description() const { return description_; }
  void set_description(std::string d) { description_ = std::move(d); }

  /// Shape of the process input/output containers.
  const std::string& input_type() const { return input_type_; }
  const std::string& output_type() const { return output_type_; }
  void set_input_type(std::string t) { input_type_ = std::move(t); }
  void set_output_type(std::string t) { output_type_ = std::move(t); }

  // --- construction -------------------------------------------------------

  Status AddActivity(Activity activity);
  Status AddControlConnector(ControlConnector connector);
  Status AddDataConnector(DataConnector connector);

  // --- lookups ------------------------------------------------------------

  const std::vector<Activity>& activities() const { return activities_; }
  const std::vector<ControlConnector>& control_connectors() const {
    return control_;
  }
  const std::vector<DataConnector>& data_connectors() const { return data_; }

  bool HasActivity(const std::string& name) const {
    return index_.count(name) > 0;
  }
  Result<const Activity*> FindActivity(const std::string& name) const;

  /// Dense activity id (index into activities()) for `name`. The runtime
  /// resolves names to ids once at API boundaries and navigates on ids.
  Result<size_t> ActivityIndex(const std::string& name) const;

  /// The compiled plan: topology index, condition programs and spin-up
  /// image (see plan.h). DefinitionStore::AddProcess builds it, so only a
  /// registered definition (or a copy of one) has a plan; calling this on
  /// any other is a precondition violation. Any Add* mutation drops the
  /// plan.
  const NavigationPlan& plan() const {
    assert(plan_ != nullptr && "plan() of an unregistered definition");
    return *plan_;
  }

  /// Indices into control_connectors() with the given source.
  std::vector<size_t> OutgoingControl(const std::string& activity) const;

  /// Topological order of activity names. ValidationError if cyclic.
  Result<std::vector<std::string>> TopologicalOrder() const;

  /// True if a directed control path from `src` to `dst` exists.
  bool HasControlPath(const std::string& src, const std::string& dst) const;

 private:
  std::string name_;
  int version_ = 1;
  std::string description_;
  std::string input_type_ = data::TypeRegistry::kDefaultTypeName;
  std::string output_type_ = data::TypeRegistry::kDefaultTypeName;

  std::vector<Activity> activities_;
  /// Name → activity id; hashed, since journal replay resolves a name per
  /// record.
  std::unordered_map<std::string, size_t> index_;
  std::vector<ControlConnector> control_;
  std::vector<DataConnector> data_;

  // Source -> outgoing control connectors, maintained by
  // AddControlConnector for the duplicate check and the graph walks
  // (TopologicalOrder, HasControlPath). Navigation reads the compiled
  // plan's adjacency instead.
  std::map<std::string, std::vector<size_t>> control_out_;

  // The plan DefinitionStore::AddProcess compiled. It holds no pointers
  // into this object, so copies may share it.
  std::shared_ptr<const NavigationPlan> plan_;

  friend class DefinitionStore;
};

/// \brief Declaration of an executable program (definition side).
///
/// The runtime binds these names to callables in its ProgramRegistry;
/// the definition layer only knows name and container shapes, which is
/// what FlowMark's "program registration" records (paper §3.3: "once a
/// program is registered it can be invoked from any activity").
struct ProgramDeclaration {
  std::string name;
  std::string description;
  std::string input_type = data::TypeRegistry::kDefaultTypeName;
  std::string output_type = data::TypeRegistry::kDefaultTypeName;
};

/// \brief Holds every definition needed to execute processes: structure
/// types, program declarations, and process templates.
class DefinitionStore {
 public:
  data::TypeRegistry& types() { return types_; }
  const data::TypeRegistry& types() const { return types_; }

  Status DeclareProgram(ProgramDeclaration decl);
  bool HasProgram(const std::string& name) const {
    return programs_.count(name) > 0;
  }
  Result<const ProgramDeclaration*> FindProgram(const std::string& name) const;
  std::vector<std::string> ProgramNames() const;

  /// Registers a process under its (name, version) pair — the paper's
  /// §3.2 meta-model gives every process "a name, version number, ...".
  /// The definition must pass ValidateProcess (see validate.h) against
  /// this store; registration then compiles its NavigationPlan, the one
  /// place a definition is compiled. Registering the same (name, version)
  /// twice fails; registering a higher version makes it the default for
  /// new instances while in-flight instances stay pinned to theirs.
  Status AddProcess(ProcessDefinition process);
  bool HasProcess(const std::string& name) const {
    return processes_.count(name) > 0;
  }
  /// Latest registered version of `name`.
  Result<const ProcessDefinition*> FindProcess(const std::string& name) const;
  /// A specific version.
  Result<const ProcessDefinition*> FindProcessVersion(const std::string& name,
                                                      int version) const;
  /// Registered versions of `name`, ascending; empty if unknown.
  std::vector<int> VersionsOf(const std::string& name) const;
  std::vector<std::string> ProcessNames() const;

  /// Removes every version of a process (used by tests re-importing
  /// definitions).
  Status RemoveProcess(const std::string& name);

 private:
  data::TypeRegistry types_;
  std::map<std::string, ProgramDeclaration> programs_;
  /// name → version → definition.
  std::map<std::string, std::map<int, ProcessDefinition>> processes_;
};

}  // namespace exotica::wf

#endif  // EXOTICA_WF_PROCESS_H_
