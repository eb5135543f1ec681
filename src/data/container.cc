#include "data/container.h"

#include "common/strings.h"

namespace exotica::data {

Result<Container> Container::Create(const TypeRegistry& registry,
                                    const std::string& type_name) {
  EXO_ASSIGN_OR_RETURN(std::vector<TypeRegistry::Leaf> leaves,
                       registry.Flatten(type_name));
  auto layout = std::make_shared<Layout>();
  layout->type_name = type_name;
  layout->paths.reserve(leaves.size());
  layout->types.reserve(leaves.size());
  layout->defaults.reserve(leaves.size());
  for (TypeRegistry::Leaf& leaf : leaves) {
    layout->index.emplace(leaf.path,
                          static_cast<uint32_t>(layout->paths.size()));
    layout->paths.push_back(std::move(leaf.path));
    layout->types.push_back(leaf.type);
    layout->defaults.push_back(std::move(leaf.default_value));
  }
  Container c;
  // values_ stays empty until the first write: a never-written container
  // needs no slot storage (reads fall back to the declared defaults), so
  // copying a fresh container — the hot path in instance spin-up — moves
  // no values at all.
  c.layout_ = std::move(layout);
  return c;
}

Container Container::Default(const TypeRegistry& registry) {
  auto r = Create(registry, TypeRegistry::kDefaultTypeName);
  // The built-in type always exists and is flat; Create cannot fail.
  return std::move(r).value();
}

Result<uint32_t> Container::SlotOf(const std::string& path) const {
  if (layout_ != nullptr) {
    auto it = layout_->index.find(path);
    if (it != layout_->index.end()) return it->second;
  }
  return Status::NotFound("no member " + path + " in container of type " +
                          type_name());
}

Result<ScalarType> Container::TypeOf(const std::string& path) const {
  EXO_ASSIGN_OR_RETURN(uint32_t slot, SlotOf(path));
  return layout_->types[slot];
}

Result<Value> Container::Get(const std::string& path) const {
  EXO_ASSIGN_OR_RETURN(uint32_t slot, SlotOf(path));
  return GetSlot(slot);
}

Status Container::Set(const std::string& path, const Value& value) {
  EXO_ASSIGN_OR_RETURN(uint32_t slot, SlotOf(path));
  EXO_ASSIGN_OR_RETURN(Value coerced, value.CoerceTo(layout_->types[slot]));
  if (values_.size() <= slot) values_.resize(layout_->paths.size());
  values_[slot] = std::move(coerced);
  return Status::OK();
}

void Container::Reset() { values_.clear(); }

std::string Container::Serialize() const {
  std::string out;
  SerializeTo(&out);
  return out;
}

void Container::SerializeTo(std::string* out) const {
  out->clear();
  if (layout_ == nullptr) return;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i].is_null()) continue;
    out->append(layout_->paths[i]);
    out->push_back('=');
    values_[i].AppendTo(out);
    out->push_back('\n');
  }
}

Status Container::Deserialize(const std::string& image) {
  Reset();
  // Walks the image line by line in place; only the path and the value
  // text of each line are copied out.
  std::string_view rest = image;
  while (!rest.empty()) {
    size_t nl = rest.find('\n');
    std::string_view line = rest.substr(0, nl);
    rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      return Status::Corruption("container image line missing '=': " +
                                std::string(line));
    }
    std::string path(Trim(trimmed.substr(0, eq)));
    EXO_ASSIGN_OR_RETURN(Value v,
                         Value::FromString(std::string(trimmed.substr(eq + 1))));
    EXO_RETURN_NOT_OK(Set(path, v));
  }
  return Status::OK();
}

bool Container::operator==(const Container& other) const {
  if (type_name() != other.type_name()) return false;
  for (const std::string& path : paths()) {
    auto a = Get(path);
    auto b = other.Get(path);
    if (!a.ok() || !b.ok()) return false;
    if (a.value() != b.value()) return false;
  }
  return true;
}

Status DataMapping::Validate(const Container& source_shape,
                             const Container& target_shape) const {
  for (const FieldMap& m : maps_) {
    EXO_ASSIGN_OR_RETURN(ScalarType from, source_shape.TypeOf(m.from_path));
    EXO_ASSIGN_OR_RETURN(ScalarType to, target_shape.TypeOf(m.to_path));
    bool compatible = (from == to) ||
                      (from == ScalarType::kLong && to == ScalarType::kFloat);
    if (!compatible) {
      return Status::ValidationError(
          StrFormat("data mapping %s (%s) -> %s (%s) is type-incompatible",
                    m.from_path.c_str(), ScalarTypeName(from),
                    m.to_path.c_str(), ScalarTypeName(to)));
    }
  }
  return Status::OK();
}

Status DataMapping::Apply(const Container& source, Container* target) const {
  for (const FieldMap& m : maps_) {
    EXO_ASSIGN_OR_RETURN(Value v, source.Get(m.from_path));
    if (v.is_null()) continue;
    EXO_RETURN_NOT_OK(target->Set(m.to_path, v));
  }
  return Status::OK();
}

}  // namespace exotica::data
