// Value: a dynamically-typed scalar stored in workflow data containers.
//
// FlowMark containers hold "a sequence of typed variables and structures"
// (paper §3.2). Scalars here are LONG, FLOAT, STRING, BOOLEAN; structures
// are modelled at the container level (see container.h) as dotted paths
// over these scalars.

#ifndef EXOTICA_DATA_VALUE_H_
#define EXOTICA_DATA_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/result.h"
#include "common/status.h"

namespace exotica::data {

/// \brief The scalar types supported in containers and expressions.
enum class ScalarType : int {
  kNull = 0,
  kLong = 1,
  kFloat = 2,
  kString = 3,
  kBool = 4,
};

/// \brief "LONG" / "FLOAT" / "STRING" / "BOOLEAN" / "NULL".
const char* ScalarTypeName(ScalarType t);

/// \brief Parses a type name (case-insensitive). NotFound if unknown.
Result<ScalarType> ScalarTypeFromName(const std::string& name);

/// \brief A dynamically typed scalar value.
///
/// Default-constructed Values are null: a container member that has never
/// been written. Null propagates through expressions as an evaluation error,
/// which matches FlowMark's behaviour of a condition over unset data being
/// unevaluable.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(bool v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}
  explicit Value(const char* v) : v_(std::string(v)) {}

  static Value Null() { return Value(); }

  ScalarType type() const {
    switch (v_.index()) {
      case 0: return ScalarType::kNull;
      case 1: return ScalarType::kLong;
      case 2: return ScalarType::kFloat;
      case 3: return ScalarType::kString;
      case 4: return ScalarType::kBool;
    }
    return ScalarType::kNull;
  }

  bool is_null() const { return type() == ScalarType::kNull; }
  bool is_long() const { return type() == ScalarType::kLong; }
  bool is_float() const { return type() == ScalarType::kFloat; }
  bool is_string() const { return type() == ScalarType::kString; }
  bool is_bool() const { return type() == ScalarType::kBool; }
  /// Long or float.
  bool is_numeric() const { return is_long() || is_float(); }

  int64_t as_long() const { return std::get<int64_t>(v_); }
  double as_float() const { return std::get<double>(v_); }
  bool as_bool() const { return std::get<bool>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }

  /// Numeric value widened to double; error for non-numerics.
  Result<double> ToDouble() const;

  /// Exact structural equality (type + payload). Null == Null.
  bool operator==(const Value& other) const { return v_ == other.v_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Human/debug representation, e.g. `42`, `3.5`, `"abc"`, `TRUE`, `NULL`.
  std::string ToString() const;

  /// Appends ToString() to `out` without building a temporary.
  void AppendTo(std::string* out) const;

  /// Parses the representation produced by ToString. Used by the journal.
  static Result<Value> FromString(const std::string& repr);

  /// True if this value is assignable to a member declared as `t`
  /// (exact type match, or long widening to float). Nulls assign anywhere.
  bool AssignableTo(ScalarType t) const;

  /// Returns this value coerced to declared type `t` (long→float widening
  /// only). InvalidArgument on any other mismatch.
  Result<Value> CoerceTo(ScalarType t) const;

 private:
  std::variant<std::monostate, int64_t, double, std::string, bool> v_;
};

}  // namespace exotica::data

#endif  // EXOTICA_DATA_VALUE_H_
