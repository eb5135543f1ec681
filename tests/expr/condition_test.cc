#include "expr/condition.h"

#include <gtest/gtest.h>

#include "expr/eval.h"

namespace exotica::expr {
namespace {

TEST(ConditionTest, TrivialConditionIsAlwaysTrue) {
  Condition c;
  EXPECT_TRUE(c.is_trivial());
  EXPECT_EQ(c.source(), "TRUE");
  EXPECT_EQ(c.root(), nullptr);
  EXPECT_TRUE(c.Identifiers().empty());
}

TEST(ConditionTest, CompiledConditionEvaluates) {
  auto c = Condition::Compile("RC = 0");
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c->is_trivial());
  EXPECT_EQ(c->source(), "RC = 0");
  EXPECT_EQ(c->Identifiers(), (std::vector<std::string>{"RC"}));

  data::TypeRegistry reg;
  data::Container container = data::Container::Default(reg);
  ContainerResolver resolver(container);
  EXPECT_TRUE(*EvaluateBool(*c->root(), resolver));  // RC defaults to 0
  ASSERT_TRUE(container.Set("RC", data::Value(int64_t{1})).ok());
  EXPECT_FALSE(*EvaluateBool(*c->root(), resolver));
}

TEST(ConditionTest, CompileErrorSurfaces) {
  EXPECT_TRUE(Condition::Compile("RC = ").status().IsParseError());
}

TEST(ConditionTest, CopiesShareCompiledTree) {
  auto c = Condition::Compile("RC <> 0 AND RC < 5");
  ASSERT_TRUE(c.ok());
  Condition copy = *c;
  EXPECT_EQ(copy.source(), c->source());
}

}  // namespace
}  // namespace exotica::expr
