// Data containers: the typed variable stores attached to every activity
// and process (paper §3.2, "Input Container" / "Output Container").

#ifndef EXOTICA_DATA_CONTAINER_H_
#define EXOTICA_DATA_CONTAINER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/types.h"
#include "data/value.h"

namespace exotica::data {

/// \brief An instance of a StructType: dotted leaf paths → values.
///
/// Containers are instantiated from a TypeRegistry, which fixes the set of
/// legal paths and their scalar types. Reads of never-written members yield
/// the declared default (or null). Writes are type-checked.
///
/// The shape (paths, types, defaults, path→slot index) is an immutable
/// Layout shared by every copy of a container, so copying a container —
/// the hot operation in instance spin-up, where every activity gets its
/// input and output containers from a prototype — copies only the flat
/// value vector and bumps the layout refcount. The value vector itself is
/// allocated lazily on the first write, so copying a never-written
/// container moves no values at all.
class Container {
 public:
  /// Creates a container of shape `type_name`. Fails if the type is
  /// unknown, recursive, or has unresolved nested references.
  static Result<Container> Create(const TypeRegistry& registry,
                                  const std::string& type_name);

  /// An empty container of the built-in `_Default` shape (RC : LONG = 0).
  static Container Default(const TypeRegistry& registry);

  const std::string& type_name() const {
    static const std::string kEmpty;
    return layout_ ? layout_->type_name : kEmpty;
  }

  /// All legal leaf paths, in declaration order.
  const std::vector<std::string>& paths() const {
    static const std::vector<std::string> kNone;
    return layout_ ? layout_->paths : kNone;
  }

  bool HasPath(const std::string& path) const {
    return layout_ && layout_->index.count(path) > 0;
  }

  /// Sentinel returned by SlotIndex for unknown paths.
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// Number of member slots in this container's layout.
  uint32_t slot_count() const {
    return layout_ ? static_cast<uint32_t>(layout_->paths.size()) : 0;
  }

  /// Slot index of a leaf path (stable across every container of this
  /// layout), or kNoSlot. Resolve once, then read via GetSlot.
  uint32_t SlotIndex(const std::string& path) const {
    if (!layout_) return kNoSlot;
    auto it = layout_->index.find(path);
    return it == layout_->index.end() ? kNoSlot : it->second;
  }

  /// Current value of slot `slot` (declared default if never written).
  /// The slot must be < slot_count(); no bounds check — this is the
  /// compiled-condition VM's read path.
  const Value& GetSlot(uint32_t slot) const {
    if (slot < values_.size() && !values_[slot].is_null()) {
      return values_[slot];
    }
    return layout_->defaults[slot];
  }

  /// Declared scalar type of a leaf. NotFound for unknown paths.
  Result<ScalarType> TypeOf(const std::string& path) const;

  /// Current value of a leaf (default if never written). NotFound for
  /// unknown paths.
  Result<Value> Get(const std::string& path) const;

  /// Type-checked write (long widens to float). NotFound / InvalidArgument.
  Status Set(const std::string& path, const Value& value);

  /// Resets every member to its declared default.
  void Reset();

  /// Serializes the non-default members as `path=value` lines (journal /
  /// audit format).
  std::string Serialize() const;

  /// Applies a Serialize()d image on top of the defaults.
  Status Deserialize(const std::string& image);

  bool operator==(const Container& other) const;

 private:
  /// Immutable shape, shared across all copies of a container.
  struct Layout {
    std::string type_name;
    std::vector<std::string> paths;  ///< declaration order
    std::vector<ScalarType> types;
    std::vector<Value> defaults;
    std::map<std::string, uint32_t> index;  ///< path → slot
  };

  Result<uint32_t> SlotOf(const std::string& path) const;

  std::shared_ptr<const Layout> layout_;
  /// One slot per path once anything has been written; empty until then.
  /// Null (or absent) slots read as the declared default.
  std::vector<Value> values_;
};

/// \brief One field-to-field mapping of a data connector.
struct FieldMap {
  std::string from_path;  ///< path in the source (output) container
  std::string to_path;    ///< path in the target (input) container
};

/// \brief A data connector's payload: an ordered list of field mappings
/// (paper §3.2, "Flow of Data ... a series of mappings between output data
/// containers and input data containers").
class DataMapping {
 public:
  DataMapping() = default;

  void Add(std::string from_path, std::string to_path) {
    maps_.push_back(FieldMap{std::move(from_path), std::move(to_path)});
  }

  const std::vector<FieldMap>& maps() const { return maps_; }
  bool empty() const { return maps_.empty(); }

  /// Checks every mapping is path- and type-compatible between the two
  /// container shapes.
  Status Validate(const Container& source_shape,
                  const Container& target_shape) const;

  /// Copies mapped fields from `source` into `target`. Unwritten (null)
  /// source members are skipped so later connectors can layer over earlier
  /// ones without erasing data.
  Status Apply(const Container& source, Container* target) const;

 private:
  std::vector<FieldMap> maps_;
};

}  // namespace exotica::data

#endif  // EXOTICA_DATA_CONTAINER_H_
