#include "data/value.h"

#include <charconv>
#include <cstdlib>

#include "common/strings.h"

namespace exotica::data {

const char* ScalarTypeName(ScalarType t) {
  switch (t) {
    case ScalarType::kNull: return "NULL";
    case ScalarType::kLong: return "LONG";
    case ScalarType::kFloat: return "FLOAT";
    case ScalarType::kString: return "STRING";
    case ScalarType::kBool: return "BOOLEAN";
  }
  return "?";
}

Result<ScalarType> ScalarTypeFromName(const std::string& name) {
  std::string up = ToUpper(name);
  if (up == "LONG" || up == "INTEGER") return ScalarType::kLong;
  if (up == "FLOAT" || up == "DOUBLE") return ScalarType::kFloat;
  if (up == "STRING") return ScalarType::kString;
  if (up == "BOOLEAN" || up == "BOOL") return ScalarType::kBool;
  return Status::NotFound("unknown scalar type name: " + name);
}

Result<double> Value::ToDouble() const {
  if (is_long()) return static_cast<double>(as_long());
  if (is_float()) return as_float();
  return Status::InvalidArgument("value is not numeric: " + ToString());
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Value::AppendTo(std::string* out) const {
  switch (type()) {
    case ScalarType::kNull: out->append("NULL"); return;
    case ScalarType::kLong: {
      char digits[24];
      auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), as_long());
      (void)ec;  // 24 chars hold any int64_t with its sign
      out->append(digits, end);
      return;
    }
    case ScalarType::kFloat: {
      std::string s = StrFormat("%.17g", as_float());
      // Keep floats visually distinct from longs for round-tripping.
      if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos && s.find("nan") == std::string::npos) {
        s += ".0";
      }
      out->append(s);
      return;
    }
    case ScalarType::kString:
      out->push_back('"');
      AppendEscaped(as_string(), out);
      out->push_back('"');
      return;
    case ScalarType::kBool: out->append(as_bool() ? "TRUE" : "FALSE"); return;
  }
  out->append("?");
}

Result<Value> Value::FromString(const std::string& repr) {
  std::string_view s = Trim(repr);
  if (s.empty()) return Status::ParseError("empty value literal");
  if (s == "NULL") return Value::Null();
  if (s == "TRUE") return Value(true);
  if (s == "FALSE") return Value(false);
  if (s.front() == '"') {
    if (s.size() < 2 || s.back() != '"') {
      return Status::ParseError("unterminated string literal: " + repr);
    }
    std::string out;
    if (!UnescapeQuoted(s.substr(1, s.size() - 2), &out)) {
      return Status::ParseError("bad escape in string literal: " + repr);
    }
    return Value(std::move(out));
  }
  // Numeric: float iff it contains '.', 'e' or 'E'.
  std::string text(s);
  bool is_float = text.find_first_of(".eE") != std::string::npos;
  char* end = nullptr;
  if (is_float) {
    double d = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) {
      return Status::ParseError("bad float literal: " + repr);
    }
    return Value(d);
  }
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) {
    return Status::ParseError("bad integer literal: " + repr);
  }
  return Value(static_cast<int64_t>(v));
}

bool Value::AssignableTo(ScalarType t) const {
  if (is_null()) return true;
  if (type() == t) return true;
  if (is_long() && t == ScalarType::kFloat) return true;
  return false;
}

Result<Value> Value::CoerceTo(ScalarType t) const {
  if (is_null()) return *this;
  if (type() == t) return *this;
  if (is_long() && t == ScalarType::kFloat) {
    return Value(static_cast<double>(as_long()));
  }
  return Status::InvalidArgument(
      std::string("cannot assign ") + ScalarTypeName(type()) + " value " +
      ToString() + " to member of type " + ScalarTypeName(t));
}

}  // namespace exotica::data
