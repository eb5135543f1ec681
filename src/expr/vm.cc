#include "expr/vm.h"

#include <utility>

#include "expr/ast.h"
#include "expr/eval.h"
#include "expr/kernels.h"

namespace exotica::expr {

using data::Value;

Result<Value> CompiledCondition::Evaluate(const data::Container& c) const {
  if (code_.empty()) return Value(true);
  if (c.slot_count() < min_slots_) {
    return Status::Internal("compiled condition bound against container type " +
                            bound_type_ + " cannot read a container of type " +
                            c.type_name());
  }
  // Size the operand stack to the program's compile-time high-water mark:
  // a typical condition needs 2-4 slots, and constructing/destroying
  // kMaxStack Values per evaluation would dominate small programs.
  if (max_stack_ <= 8) {
    Value stack[8];
    return Run(c, stack);
  }
  if (max_stack_ <= 16) {
    Value stack[16];
    return Run(c, stack);
  }
  if (max_stack_ <= 32) {
    Value stack[32];
    return Run(c, stack);
  }
  Value stack[kMaxStack];
  return Run(c, stack);
}

Result<Value> CompiledCondition::Run(const data::Container& c,
                                     Value* stack) const {
  uint32_t sp = 0;
  const Instr* code = code_.data();
  const size_t n = code_.size();
  for (size_t pc = 0; pc < n; ++pc) {
    const Instr& in = code[pc];
    switch (in.op) {
      case Op::kConst:
        stack[sp++] = consts_[in.a];
        break;
      case Op::kLoad: {
        const Value& v = c.GetSlot(in.a);
        if (v.is_null()) {
          return Status::FailedPrecondition(internal::kUnsetDataPrefix +
                                            names_[in.b]);
        }
        stack[sp++] = v;
        break;
      }
      case Op::kNot: {
        Value& v = stack[sp - 1];
        if (!v.is_bool()) {
          return Status::InvalidArgument("NOT requires a boolean, got " +
                                         v.ToString());
        }
        v = Value(!v.as_bool());
        break;
      }
      case Op::kNeg: {
        Value& v = stack[sp - 1];
        if (v.is_long()) {
          v = Value(-v.as_long());
        } else if (v.is_float()) {
          v = Value(-v.as_float());
        } else {
          return Status::InvalidArgument("unary '-' requires a number, got " +
                                         v.ToString());
        }
        break;
      }
      case Op::kAndJump: {
        const Value& v = stack[--sp];
        if (!v.is_bool()) {
          return Status::InvalidArgument("AND requires booleans, got " +
                                         v.ToString());
        }
        if (!v.as_bool()) {
          stack[sp++] = Value(false);
          pc = in.a - 1;  // for-loop increment lands on the jump target
        }
        break;
      }
      case Op::kOrJump: {
        const Value& v = stack[--sp];
        if (!v.is_bool()) {
          return Status::InvalidArgument("OR requires booleans, got " +
                                         v.ToString());
        }
        if (v.as_bool()) {
          stack[sp++] = Value(true);
          pc = in.a - 1;
        }
        break;
      }
      case Op::kRequireBool: {
        const Value& v = stack[sp - 1];
        if (!v.is_bool()) {
          return Status::InvalidArgument(
              std::string(in.a == 0 ? "AND" : "OR") +
              " requires booleans, got " + v.ToString());
        }
        break;
      }
      default: {
        // Binary comparison / arithmetic: pop two, push one. Numeric
        // operand pairs take inlined fast paths replicating the shared
        // kernels step for step (same double widening, same comparison
        // structure, long-preserving arithmetic); everything else —
        // strings, booleans, type errors, division/modulo by zero — goes
        // through the kernels themselves so error behaviour cannot drift.
        Value& a = stack[sp - 2];
        const Value& b = stack[sp - 1];
        if (a.is_numeric() && b.is_numeric()) {
          const bool longs = a.is_long() && b.is_long();
          const int64_t lx = longs ? a.as_long() : 0;
          const int64_t ly = longs ? b.as_long() : 0;
          const double x =
              a.is_long() ? static_cast<double>(a.as_long()) : a.as_float();
          const double y =
              b.is_long() ? static_cast<double>(b.as_long()) : b.as_float();
          bool done = true;
          switch (in.op) {
            // Comparisons: the shared kernel (kernels.h), folded per case.
#define EXO_GCMP(OPC, BOP) \
  case Op::OPC:            \
    a = Value(internal::CompareDouble(BinaryOp::BOP, x, y)); \
    break;
            EXO_GCMP(kEq, kEq)
            EXO_GCMP(kNeq, kNeq)
            EXO_GCMP(kLt, kLt)
            EXO_GCMP(kLe, kLe)
            EXO_GCMP(kGt, kGt)
            EXO_GCMP(kGe, kGe)
#undef EXO_GCMP
            case Op::kAdd: a = longs ? Value(lx + ly) : Value(x + y); break;
            case Op::kSub: a = longs ? Value(lx - ly) : Value(x - y); break;
            case Op::kMul: a = longs ? Value(lx * ly) : Value(x * y); break;
            case Op::kDiv:
              if (longs ? ly == 0 : y == 0.0) {
                done = false;  // the kernel raises division by zero
                break;
              }
              a = longs ? Value(lx / ly) : Value(x / y);
              break;
            case Op::kMod:
              if (!longs || ly == 0) {
                done = false;  // the kernel raises the type / zero error
                break;
              }
              a = Value(lx % ly);
              break;
            default:
              done = false;
              break;
          }
          if (done) {
            --sp;
            break;
          }
        }
        BinaryOp bop;
        bool compare = true;
        switch (in.op) {
          case Op::kEq: bop = BinaryOp::kEq; break;
          case Op::kNeq: bop = BinaryOp::kNeq; break;
          case Op::kLt: bop = BinaryOp::kLt; break;
          case Op::kLe: bop = BinaryOp::kLe; break;
          case Op::kGt: bop = BinaryOp::kGt; break;
          case Op::kGe: bop = BinaryOp::kGe; break;
          case Op::kAdd: bop = BinaryOp::kAdd; compare = false; break;
          case Op::kSub: bop = BinaryOp::kSub; compare = false; break;
          case Op::kMul: bop = BinaryOp::kMul; compare = false; break;
          case Op::kDiv: bop = BinaryOp::kDiv; compare = false; break;
          case Op::kMod: bop = BinaryOp::kMod; compare = false; break;
          default:
            return Status::Internal("unknown condition VM opcode");
        }
        Result<Value> r = compare ? internal::CompareOp(bop, a, b)
                                  : internal::ArithmeticOp(bop, a, b);
        if (!r.ok()) return r.status();
        a = std::move(r).value();
        --sp;
        break;
      }
    }
  }
  return std::move(stack[0]);
}

Result<bool> CompiledCondition::EvaluateBool(const data::Container& c) const {
  EXO_ASSIGN_OR_RETURN(Value v, Evaluate(c));
  if (!v.is_bool()) {
    return Status::InvalidArgument("condition did not evaluate to a boolean: " +
                                   source_ + " = " + v.ToString());
  }
  return v.as_bool();
}

}  // namespace exotica::expr
