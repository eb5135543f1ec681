#include "expr/compile.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "expr/eval.h"
#include "expr/parser.h"
#include "expr/vm.h"

namespace exotica::expr {
namespace {

using data::ScalarType;
using data::Value;
using Op = CompiledCondition::Op;

class CompileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::StructType t("Vals");
    ASSERT_TRUE(t.AddScalar("i", ScalarType::kLong).ok());
    ASSERT_TRUE(t.AddScalar("f", ScalarType::kFloat).ok());
    ASSERT_TRUE(t.AddScalar("s", ScalarType::kString).ok());
    ASSERT_TRUE(t.AddScalar("b", ScalarType::kBool).ok());
    ASSERT_TRUE(t.AddScalar("unset", ScalarType::kLong).ok());
    ASSERT_TRUE(reg_.Register(std::move(t)).ok());
    auto c = data::Container::Create(reg_, "Vals");
    ASSERT_TRUE(c.ok());
    container_ = std::make_unique<data::Container>(std::move(*c));
    ASSERT_TRUE(container_->Set("i", Value(int64_t{6})).ok());
    ASSERT_TRUE(container_->Set("f", Value(2.5)).ok());
    ASSERT_TRUE(container_->Set("s", Value("abc")).ok());
    ASSERT_TRUE(container_->Set("b", Value(true)).ok());
  }

  Result<CompiledCondition> Compile(const std::string& src) {
    auto node = Parse(src);
    if (!node.ok()) return node.status();
    node_ = std::move(*node);
    return ConditionCompiler::Compile(node_.get(), *container_);
  }

  Result<Value> Run(const std::string& src) {
    EXO_ASSIGN_OR_RETURN(CompiledCondition prog, Compile(src));
    return prog.Evaluate(*container_);
  }

  data::TypeRegistry reg_;
  std::unique_ptr<data::Container> container_;
  NodePtr node_;
};

TEST_F(CompileTest, EmptyProgramIsTrue) {
  auto prog = ConditionCompiler::Compile(nullptr, *container_);
  ASSERT_TRUE(prog.ok());
  EXPECT_TRUE(prog->empty());
  EXPECT_EQ(prog->source(), "TRUE");
  auto v = prog->Evaluate(*container_);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value(true));
}

TEST_F(CompileTest, ConstantFoldingCollapsesLiteralSubtrees) {
  auto prog = Compile("1 + 2 * 3 = 7");
  ASSERT_TRUE(prog.ok());
  // The whole identifier-free expression folds to a single constant push.
  ASSERT_EQ(prog->code().size(), 1u);
  EXPECT_EQ(prog->code()[0].op, Op::kConst);
  EXPECT_EQ(prog->max_stack(), 1u);
  auto v = prog->Evaluate(*container_);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value(true));
}

TEST_F(CompileTest, ErroringConstantsAreNotFolded) {
  // 1/0 must stay unfolded so evaluation reproduces the tree-walk error.
  auto prog = Compile("1 / 0 = 1");
  ASSERT_TRUE(prog.ok());
  EXPECT_GT(prog->code().size(), 1u);
  auto v = prog->Evaluate(*container_);
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsInvalidArgument());
}

TEST_F(CompileTest, IdentifiersBindToLayoutSlots) {
  auto prog = Compile("i = 6");
  ASSERT_TRUE(prog.ok());
  ASSERT_EQ(prog->code().size(), 3u);
  EXPECT_EQ(prog->code()[0].op, Op::kLoad);
  EXPECT_EQ(prog->code()[0].a, container_->SlotIndex("i"));
  EXPECT_EQ(prog->bound_type(), "Vals");
  EXPECT_GE(prog->min_slots(), container_->SlotIndex("i") + 1);
  auto v = prog->Evaluate(*container_);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value(true));
}

TEST_F(CompileTest, UnknownIdentifierIsUnsupported) {
  auto prog = Compile("nosuch = 1");
  ASSERT_FALSE(prog.ok());
  EXPECT_TRUE(prog.status().IsUnsupported());
}

TEST_F(CompileTest, ArithmeticAndComparisonsMatchTreeWalk) {
  for (const char* src :
       {"i + f", "i - 2", "i * i", "i / 2", "i % 4", "-i", "i < f", "i <= 6",
        "i > f", "i >= 7", "i = 6", "i <> 6", "s = \"abc\"", "s < \"b\"",
        "f + 1.5", "7 / 2", "7.0 / 2", "i + f * 2.0 - 1"}) {
    auto node = Parse(src);
    ASSERT_TRUE(node.ok()) << src;
    auto prog = ConditionCompiler::Compile(node->get(), *container_);
    ASSERT_TRUE(prog.ok()) << src << ": " << prog.status().ToString();
    ContainerResolver resolver(*container_);
    auto tree = Evaluate(**node, resolver);
    auto vm = prog->Evaluate(*container_);
    ASSERT_TRUE(tree.ok()) << src;
    ASSERT_TRUE(vm.ok()) << src << ": " << vm.status().ToString();
    EXPECT_EQ(*tree, *vm) << src;
  }
}

TEST_F(CompileTest, ShortCircuitAndSkipsRhs) {
  // Unset data on the rhs must not be touched when the lhs decides.
  auto v = Run("i = 0 AND unset = 1");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, Value(false));

  v = Run("i = 6 OR unset = 1");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, Value(true));
}

TEST_F(CompileTest, NonShortCircuitedRhsStillErrors) {
  auto v = Run("i = 6 AND unset = 1");
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsFailedPrecondition());
  EXPECT_NE(v.status().ToString().find("unset"), std::string::npos);
}

TEST_F(CompileTest, NullOperandErrorMatchesTreeWalkMessage) {
  auto node = Parse("unset + 1 = 2");
  ASSERT_TRUE(node.ok());
  auto prog = ConditionCompiler::Compile(node->get(), *container_);
  ASSERT_TRUE(prog.ok());
  ContainerResolver resolver(*container_);
  auto tree = Evaluate(**node, resolver);
  auto vm = prog->Evaluate(*container_);
  ASSERT_FALSE(tree.ok());
  ASSERT_FALSE(vm.ok());
  EXPECT_EQ(tree.status().ToString(), vm.status().ToString());
}

TEST_F(CompileTest, TypeErrorMessagesMatchTreeWalk) {
  for (const char* src : {"s + 1", "b < TRUE", "i % 2.5", "NOT i", "-s",
                          "b AND 1", "1 OR b", "s * s"}) {
    auto node = Parse(src);
    ASSERT_TRUE(node.ok()) << src;
    auto prog = ConditionCompiler::Compile(node->get(), *container_);
    ASSERT_TRUE(prog.ok()) << src;
    ContainerResolver resolver(*container_);
    auto tree = Evaluate(**node, resolver);
    auto vm = prog->Evaluate(*container_);
    ASSERT_FALSE(tree.ok()) << src;
    ASSERT_FALSE(vm.ok()) << src;
    EXPECT_EQ(tree.status().ToString(), vm.status().ToString()) << src;
  }
}

TEST_F(CompileTest, EvaluateBoolRejectsNonBooleanResult) {
  auto prog = Compile("i + 1");
  ASSERT_TRUE(prog.ok());
  auto b = prog->EvaluateBool(*container_);
  ASSERT_FALSE(b.ok());
  // Message parity with Condition::Evaluate's non-boolean error.
  EXPECT_NE(b.status().ToString().find("did not evaluate to a boolean"),
            std::string::npos);
}

TEST_F(CompileTest, DeepExpressionCompilesAndMatchesTreeWalk) {
  // Right-leaning additions of identifiers: each level needs one more
  // stack slot, and identifiers prevent folding. Depth is unbounded: 80
  // levels compile to an 81-slot program that runs on the heap stack and
  // agrees with the tree-walk, value and error alike.
  std::string src = "i";
  for (int i = 0; i < 80; ++i) src = "i + (" + src + ")";
  for (const std::string& cond : {src + " = 486", src + " + s"}) {
    auto prog = Compile(cond);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    EXPECT_EQ(prog->max_stack(), 81u);
    ContainerResolver resolver(*container_);
    Result<Value> tree = Evaluate(*node_, resolver);
    Result<Value> vm = prog->Evaluate(*container_);
    ASSERT_EQ(tree.ok(), vm.ok());
    if (tree.ok()) {
      EXPECT_EQ(*vm, Value(true));
      EXPECT_EQ(*tree, *vm);
    } else {
      EXPECT_EQ(tree.status().ToString(), vm.status().ToString());
    }
  }
}

TEST_F(CompileTest, SourceIsCanonicalRootText) {
  auto prog = Compile("i=6 AND b");
  ASSERT_TRUE(prog.ok());
  EXPECT_EQ(prog->source(), node_->ToString());
}

}  // namespace
}  // namespace exotica::expr
