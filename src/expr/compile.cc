#include "expr/compile.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "expr/eval.h"

namespace exotica::expr {
namespace {

using Op = CompiledCondition::Op;
using Instr = CompiledCondition::Instr;

/// Resolver for compile-time folding of identifier-free subtrees. Never
/// actually invoked — folding is only attempted when the subtree contains
/// no identifiers.
class NoIdentifierResolver : public ValueResolver {
 public:
  Result<data::Value> Resolve(const std::string& name) const override {
    return Status::Internal("constant fold resolved identifier: " + name);
  }
};

bool HasIdentifiers(const Node& node) {
  switch (node.kind) {
    case NodeKind::kLiteral:
      return false;
    case NodeKind::kIdentifier:
      return true;
    case NodeKind::kUnary:
      return HasIdentifiers(*node.lhs);
    case NodeKind::kBinary:
      return HasIdentifiers(*node.lhs) || HasIdentifiers(*node.rhs);
  }
  return true;
}

}  // namespace

namespace internal {

/// Lowers one AST into a CompiledCondition.
class ConditionEmitter {
 public:
  explicit ConditionEmitter(const data::Container& shape) : shape_(shape) {}

  Status Emit(const Node& node) {
    // Fold identifier-free subtrees that evaluate cleanly. Subtrees whose
    // evaluation errors (1/0, "a" + 1) are emitted structurally so the
    // runtime reproduces the tree-walk's error, message and all.
    if (!HasIdentifiers(node)) {
      Result<data::Value> folded = expr::Evaluate(node, NoIdentifierResolver());
      if (folded.ok()) {
        PushConst(std::move(folded).value());
        return Status::OK();
      }
    }
    switch (node.kind) {
      case NodeKind::kLiteral:
        PushConst(node.literal);
        return Status::OK();
      case NodeKind::kIdentifier:
        return EmitLoad(node);
      case NodeKind::kUnary:
        EXO_RETURN_NOT_OK(Emit(*node.lhs));
        prog_.code_.push_back(
            Instr{node.unary_op == UnaryOp::kNot ? Op::kNot : Op::kNeg});
        return Status::OK();
      case NodeKind::kBinary:
        return EmitBinary(node);
    }
    return Status::Internal("unknown expression node kind");
  }

  Result<CompiledCondition> Finish(const Node& root) {
    if (prog_.max_stack_ > CompiledCondition::kMaxStack) {
      return Status::Unsupported("condition needs " +
                                 std::to_string(prog_.max_stack_) +
                                 " value-stack slots");
    }
    prog_.source_ = root.ToString();
    prog_.bound_type_ = shape_.type_name();
    return std::move(prog_);
  }

 private:
  void Grow(uint32_t pushed) {
    depth_ += pushed;
    prog_.max_stack_ = std::max(prog_.max_stack_, depth_);
  }

  void PushConst(data::Value v) {
    prog_.code_.push_back(
        Instr{Op::kConst, static_cast<uint32_t>(prog_.consts_.size())});
    prog_.consts_.push_back(std::move(v));
    Grow(1);
  }

  Status EmitLoad(const Node& node) {
    uint32_t slot = shape_.SlotIndex(node.identifier);
    if (slot == data::Container::kNoSlot) {
      return Status::Unsupported("condition references " + node.identifier +
                                 ", which container type " +
                                 shape_.type_name() + " does not declare");
    }
    auto [it, inserted] =
        name_pool_.emplace(node.identifier, prog_.names_.size());
    if (inserted) prog_.names_.push_back(node.identifier);
    prog_.code_.push_back(Instr{Op::kLoad, slot, it->second});
    prog_.min_slots_ = std::max(prog_.min_slots_, slot + 1);
    Grow(1);
    return Status::OK();
  }

  Status EmitBinary(const Node& node) {
    if (node.binary_op == BinaryOp::kAnd || node.binary_op == BinaryOp::kOr) {
      const bool is_and = node.binary_op == BinaryOp::kAnd;
      EXO_RETURN_NOT_OK(Emit(*node.lhs));
      --depth_;  // the jump pops the lhs...
      size_t jump_at = prog_.code_.size();
      prog_.code_.push_back(Instr{is_and ? Op::kAndJump : Op::kOrJump});
      EXO_RETURN_NOT_OK(Emit(*node.rhs));
      prog_.code_.push_back(Instr{Op::kRequireBool, is_and ? 0u : 1u});
      // ...and the short-circuit path re-pushes the decided value, so both
      // paths leave exactly one result (rhs depth already counted it).
      prog_.code_[jump_at].a = static_cast<uint32_t>(prog_.code_.size());
      return Status::OK();
    }
    EXO_RETURN_NOT_OK(Emit(*node.lhs));
    EXO_RETURN_NOT_OK(Emit(*node.rhs));
    Op op;
    switch (node.binary_op) {
      case BinaryOp::kEq: op = Op::kEq; break;
      case BinaryOp::kNeq: op = Op::kNeq; break;
      case BinaryOp::kLt: op = Op::kLt; break;
      case BinaryOp::kLe: op = Op::kLe; break;
      case BinaryOp::kGt: op = Op::kGt; break;
      case BinaryOp::kGe: op = Op::kGe; break;
      case BinaryOp::kAdd: op = Op::kAdd; break;
      case BinaryOp::kSub: op = Op::kSub; break;
      case BinaryOp::kMul: op = Op::kMul; break;
      case BinaryOp::kDiv: op = Op::kDiv; break;
      case BinaryOp::kMod: op = Op::kMod; break;
      default:
        return Status::Internal("unexpected binary operator");
    }
    prog_.code_.push_back(Instr{op});
    --depth_;  // two operands become one result
    return Status::OK();
  }

  const data::Container& shape_;
  CompiledCondition prog_;
  std::map<std::string, uint32_t> name_pool_;
  uint32_t depth_ = 0;
};

}  // namespace internal

Result<CompiledCondition> ConditionCompiler::Compile(
    const Node* root, const data::Container& shape) {
  if (root == nullptr) return CompiledCondition();
  internal::ConditionEmitter emitter(shape);
  EXO_RETURN_NOT_OK(emitter.Emit(*root));
  return emitter.Finish(*root);
}

}  // namespace exotica::expr
