#include "expr/condition.h"

namespace exotica::expr {

Result<Condition> Condition::Compile(const std::string& source) {
  EXO_ASSIGN_OR_RETURN(NodePtr root, Parse(source));
  Condition c;
  c.root_ = std::shared_ptr<const Node>(root.release());
  c.source_ = c.root_->ToString();
  return c;
}

const std::string& Condition::source() const {
  static const std::string kTrue = "TRUE";
  return is_trivial() ? kTrue : source_;
}

std::vector<std::string> Condition::Identifiers() const {
  std::vector<std::string> out;
  if (root_) root_->CollectIdentifiers(&out);
  return out;
}

}  // namespace exotica::expr
