#include "expr/eval.h"

#include <cmath>

#include "common/strings.h"
#include "expr/kernels.h"

namespace exotica::expr {

using data::ScalarType;
using data::Value;

namespace {

Status TypeError(const char* what, const Value& a, const Value& b) {
  return Status::InvalidArgument(StrFormat(
      "%s not defined for %s and %s", what, a.ToString().c_str(),
      b.ToString().c_str()));
}

Status NullOperand(const Node& node) {
  return Status::FailedPrecondition(internal::kUnsetDataPrefix +
                                    node.ToString());
}

Result<Value> Compare(BinaryOp op, const Value& a, const Value& b) {
  return internal::CompareOp(op, a, b);
}

Result<Value> Arithmetic(BinaryOp op, const Value& a, const Value& b) {
  return internal::ArithmeticOp(op, a, b);
}

}  // namespace

namespace internal {

Result<Value> CompareOp(BinaryOp op, const Value& a, const Value& b) {
  // Numeric pairs all route through the one shared double comparison
  // (kernels.h), which the compiled VM's numeric fast path shares.
  if (a.is_numeric() && b.is_numeric()) {
    EXO_ASSIGN_OR_RETURN(double da, a.ToDouble());
    EXO_ASSIGN_OR_RETURN(double db, b.ToDouble());
    return Value(CompareDouble(op, da, db));
  }
  // Equality on same-kind pairs.
  if (op == BinaryOp::kEq || op == BinaryOp::kNeq) {
    if (a.type() != b.type()) {
      return TypeError("equality", a, b);
    }
    const bool eq = a == b;
    return Value(op == BinaryOp::kEq ? eq : !eq);
  }
  // Ordering on strings.
  int cmp;
  if (a.is_string() && b.is_string()) {
    cmp = a.as_string().compare(b.as_string());
    cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  } else {
    return TypeError("ordering", a, b);
  }
  bool r = false;
  switch (op) {
    case BinaryOp::kLt: r = cmp < 0; break;
    case BinaryOp::kLe: r = cmp <= 0; break;
    case BinaryOp::kGt: r = cmp > 0; break;
    case BinaryOp::kGe: r = cmp >= 0; break;
    default: return Status::Internal("Compare called with non-comparison op");
  }
  return Value(r);
}

Result<Value> ArithmeticOp(BinaryOp op, const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) {
    return TypeError("arithmetic", a, b);
  }
  if (op == BinaryOp::kMod) {
    if (!a.is_long() || !b.is_long()) {
      return TypeError("'%'", a, b);
    }
    if (b.as_long() == 0) {
      return Status::InvalidArgument(kModuloByZero);
    }
    return Value(a.as_long() % b.as_long());
  }
  // Long op long stays long (except division by zero guard); otherwise float.
  if (a.is_long() && b.is_long()) {
    int64_t x = a.as_long(), y = b.as_long();
    switch (op) {
      case BinaryOp::kAdd: return Value(x + y);
      case BinaryOp::kSub: return Value(x - y);
      case BinaryOp::kMul: return Value(x * y);
      case BinaryOp::kDiv:
        if (y == 0) return Status::InvalidArgument(kDivisionByZero);
        return Value(x / y);
      default: break;
    }
    return Status::Internal("Arithmetic called with non-arithmetic op");
  }
  EXO_ASSIGN_OR_RETURN(double x, a.ToDouble());
  EXO_ASSIGN_OR_RETURN(double y, b.ToDouble());
  switch (op) {
    case BinaryOp::kAdd: return Value(x + y);
    case BinaryOp::kSub: return Value(x - y);
    case BinaryOp::kMul: return Value(x * y);
    case BinaryOp::kDiv:
      if (y == 0.0) return Status::InvalidArgument(kDivisionByZero);
      return Value(x / y);
    default: break;
  }
  return Status::Internal("Arithmetic called with non-arithmetic op");
}

}  // namespace internal

Result<Value> Evaluate(const Node& node, const ValueResolver& resolver) {
  switch (node.kind) {
    case NodeKind::kLiteral:
      return node.literal;
    case NodeKind::kIdentifier: {
      EXO_ASSIGN_OR_RETURN(Value v, resolver.Resolve(node.identifier));
      if (v.is_null()) return NullOperand(node);
      return v;
    }
    case NodeKind::kUnary: {
      EXO_ASSIGN_OR_RETURN(Value v, Evaluate(*node.lhs, resolver));
      if (node.unary_op == UnaryOp::kNot) {
        if (!v.is_bool()) {
          return Status::InvalidArgument("NOT requires a boolean, got " +
                                         v.ToString());
        }
        return Value(!v.as_bool());
      }
      // Negation.
      if (v.is_long()) return Value(-v.as_long());
      if (v.is_float()) return Value(-v.as_float());
      return Status::InvalidArgument("unary '-' requires a number, got " +
                                     v.ToString());
    }
    case NodeKind::kBinary: {
      // Short-circuit logic first.
      if (node.binary_op == BinaryOp::kAnd || node.binary_op == BinaryOp::kOr) {
        EXO_ASSIGN_OR_RETURN(Value a, Evaluate(*node.lhs, resolver));
        if (!a.is_bool()) {
          return Status::InvalidArgument(
              std::string(BinaryOpName(node.binary_op)) +
              " requires booleans, got " + a.ToString());
        }
        if (node.binary_op == BinaryOp::kAnd && !a.as_bool()) return Value(false);
        if (node.binary_op == BinaryOp::kOr && a.as_bool()) return Value(true);
        EXO_ASSIGN_OR_RETURN(Value b, Evaluate(*node.rhs, resolver));
        if (!b.is_bool()) {
          return Status::InvalidArgument(
              std::string(BinaryOpName(node.binary_op)) +
              " requires booleans, got " + b.ToString());
        }
        return b;
      }
      EXO_ASSIGN_OR_RETURN(Value a, Evaluate(*node.lhs, resolver));
      EXO_ASSIGN_OR_RETURN(Value b, Evaluate(*node.rhs, resolver));
      switch (node.binary_op) {
        case BinaryOp::kEq:
        case BinaryOp::kNeq:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return Compare(node.binary_op, a, b);
        default:
          return Arithmetic(node.binary_op, a, b);
      }
    }
  }
  return Status::Internal("unreachable node kind");
}

Result<bool> EvaluateBool(const Node& node, const ValueResolver& resolver) {
  EXO_ASSIGN_OR_RETURN(Value v, Evaluate(node, resolver));
  if (!v.is_bool()) {
    return Status::InvalidArgument("condition did not evaluate to a boolean: " +
                                   node.ToString() + " = " + v.ToString());
  }
  return v.as_bool();
}

}  // namespace exotica::expr
