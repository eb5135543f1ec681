// CompiledCondition: slot-resolved postfix bytecode for condition
// expressions.
//
// The tree-walk evaluator (eval.h) resolves every identifier through a
// virtual ValueResolver and a string-keyed Container::Get per reference —
// on the navigator's hottest path. A CompiledCondition is the same
// expression lowered once, at NavigationPlan build time, into a flat
// program: identifiers become integer slot loads against the container's
// immutable Layout, constants are folded, and AND/OR become short-circuit
// jumps. Evaluation walks a vector of fixed-width instructions over a
// fixed-size value stack and never touches a string or allocates on the
// success path.
//
// Semantics are exactly those of expr::Evaluate — the binary operators
// share the kernels in expr::internal (kernels.h, eval.h) — including
// error *messages*, so the differential property test can demand
// byte-identical outcomes between the tree-walk and the VM. The tree-walk
// stays as the reference implementation and the fallback for expressions
// the compiler cannot bind (see compile.h).
//
// A CompiledCondition is immutable after compilation and holds no mutable
// evaluation state, so one program may be evaluated concurrently from many
// engine threads (the NavigationPlan that owns it is fleet-shared).

#ifndef EXOTICA_EXPR_VM_H_
#define EXOTICA_EXPR_VM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/container.h"
#include "data/value.h"

namespace exotica::expr {

namespace internal {
class ConditionEmitter;
}  // namespace internal

/// \brief A compiled, slot-resolved condition program.
class CompiledCondition {
 public:
  /// \brief Postfix opcodes. Binary operators pop two operands and push
  /// one result; loads and constants push one value.
  enum class Op : uint8_t {
    kConst,  ///< push consts[a]
    kLoad,   ///< push container slot `a` (declared default if unwritten);
             ///< a null read is an evaluation error (names[b] names it)
    kNot,    ///< boolean negation of the top of stack
    kNeg,    ///< numeric negation of the top of stack
    // Comparisons (same-kind / numeric pairs; see expr::internal::CompareOp).
    kEq, kNeq, kLt, kLe, kGt, kGe,
    // Arithmetic (numerics; % requires longs; /0 errors).
    kAdd, kSub, kMul, kDiv, kMod,
    kAndJump,      ///< pop v (must be bool); if !v push FALSE and jump to a
    kOrJump,       ///< pop v (must be bool); if v push TRUE and jump to a
    kRequireBool,  ///< top of stack must be bool (a: 0=AND, 1=OR names the
                   ///< operator in the error); leaves the value in place
  };

  /// \brief One fixed-width instruction.
  struct Instr {
    Op op;
    uint32_t a = 0;  ///< const index / slot index / jump target / op name
    uint32_t b = 0;  ///< kLoad: index into the identifier-name pool
  };

  /// Value-stack capacity; expressions needing more fail to compile and
  /// fall back to the tree-walk.
  static constexpr uint32_t kMaxStack = 64;

  /// An empty program; evaluates to TRUE (the trivial condition).
  CompiledCondition() = default;

  /// Evaluates against `container`, which must have the layout the program
  /// was compiled against (same TypeRegistry flatten of bound_type()).
  Result<data::Value> Evaluate(const data::Container& container) const;

  /// Evaluates and requires a boolean result.
  Result<bool> EvaluateBool(const data::Container& container) const;

  bool empty() const { return code_.empty(); }
  const std::vector<Instr>& code() const { return code_; }
  /// Canonical source text of the compiled expression ("TRUE" if empty).
  const std::string& source() const { return source_; }
  /// Container type the slot bindings were resolved against.
  const std::string& bound_type() const { return bound_type_; }
  uint32_t max_stack() const { return max_stack_; }
  /// Minimum slot count a container must have to be readable.
  uint32_t min_slots() const { return min_slots_; }

 private:
  friend class internal::ConditionEmitter;

  /// The dispatch loop over a caller-provided operand stack of at least
  /// max_stack() slots; Evaluate sizes the stack to the program.
  Result<data::Value> Run(const data::Container& container,
                          data::Value* stack) const;

  std::vector<Instr> code_;
  std::vector<data::Value> consts_;
  /// Identifier text per kLoad (only consulted to build error messages).
  std::vector<std::string> names_;
  std::string source_ = "TRUE";
  std::string bound_type_;
  uint32_t max_stack_ = 0;
  uint32_t min_slots_ = 0;
};

}  // namespace exotica::expr

#endif  // EXOTICA_EXPR_VM_H_
