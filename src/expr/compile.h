// ConditionCompiler: lowers a condition AST into a CompiledCondition.
//
// Compilation binds every identifier to a member slot of one concrete
// container shape, folds identifier-free subtrees that evaluate cleanly,
// and lowers AND/OR into short-circuit jumps. An identifier the shape
// doesn't declare is the one thing it cannot bind: that returns
// Unsupported (process validation rejects such conditions first, so
// registration never sees it). Depth is unbounded; the VM sizes its value
// stack to the program. A compiled program must only ever be run against
// containers sharing the layout of the shape it was bound to.

#ifndef EXOTICA_EXPR_COMPILE_H_
#define EXOTICA_EXPR_COMPILE_H_

#include "common/result.h"
#include "data/container.h"
#include "expr/ast.h"
#include "expr/vm.h"

namespace exotica::expr {

/// \brief Compiles condition ASTs against a container shape.
class ConditionCompiler {
 public:
  /// Compiles `root` with identifiers bound to slots of `shape`.
  /// A null `root` is the trivial condition and yields an empty
  /// (always-true) program. Returns Unsupported when the expression
  /// references a member `shape` doesn't declare.
  static Result<CompiledCondition> Compile(const Node* root,
                                           const data::Container& shape);
};

}  // namespace exotica::expr

#endif  // EXOTICA_EXPR_COMPILE_H_
