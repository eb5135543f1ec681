// Condition: a compiled, shareable condition expression.
//
// Process definitions store Conditions; registration compiles each one
// into the plan's condition program (expr/compile.h), which the engine
// runs. A default-constructed Condition is "always true", which models
// FlowMark connectors without an explicit transition condition.

#ifndef EXOTICA_EXPR_CONDITION_H_
#define EXOTICA_EXPR_CONDITION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "expr/ast.h"
#include "expr/parser.h"

namespace exotica::expr {

/// \brief An immutable compiled condition.
class Condition {
 public:
  /// Always-true condition (unconditioned connector).
  Condition() = default;

  /// Compiles `source`. ParseError on bad syntax.
  static Result<Condition> Compile(const std::string& source);

  /// True when no expression is attached (always-true).
  bool is_trivial() const { return root_ == nullptr; }

  /// The source text; "TRUE" for trivial conditions.
  const std::string& source() const;

  /// Identifiers referenced by this condition (empty for trivial).
  std::vector<std::string> Identifiers() const;

  /// The parsed expression, or null for trivial conditions. Used by the
  /// condition compiler (compile.h); the tree stays owned by this Condition.
  const Node* root() const { return root_.get(); }

 private:
  std::shared_ptr<const Node> root_;  // shared: Conditions copy freely
  std::string source_;
};

}  // namespace exotica::expr

#endif  // EXOTICA_EXPR_CONDITION_H_
