// Differential property test: the compiled-condition VM must agree with
// the tree-walk evaluator on every expression it accepts — same value on
// success, same status (code AND message) on error — across randomized
// expressions and randomized container states, including null members and
// type errors.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "data/container.h"
#include "expr/ast.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "expr/parser.h"
#include "expr/vm.h"

namespace exotica::expr {
namespace {

using data::ScalarType;
using data::Value;

/// Random expression generator. Value magnitudes are capped at 3 and
/// depth at 5, so the largest product chain a tree can build stays far
/// below int64 overflow (3^32 < 2^63) — the test must never trip UBSan
/// on its own inputs, only exercise the evaluators' defined error paths
/// (div/mod by zero, nulls, type mismatches).
class ExprGen {
 public:
  explicit ExprGen(Rng* rng) : rng_(rng) {}

  static constexpr const char* kIdents[] = {"la", "lb", "lzero", "lnull",
                                            "fa", "fb", "fnull",
                                            "sa", "snull", "ba", "bnull"};

  NodePtr Gen(int depth) {
    // Leaves at the depth cap; otherwise mostly interior nodes.
    int64_t pick = rng_->Uniform(0, depth <= 0 ? 1 : 9);
    switch (pick) {
      case 0:  // literal
        switch (rng_->Uniform(0, 3)) {
          case 0: return Node::Literal(Value(rng_->Uniform(-3, 3)));
          case 1: return Node::Literal(Value(0.5 * rng_->Uniform(-6, 6)));
          case 2: return Node::Literal(Value(rng_->Bernoulli(0.5)));
          default:
            return Node::Literal(
                Value(std::string(1, "abc"[rng_->Uniform(0, 2)])));
        }
      case 1:  // identifier
        return Node::Identifier(
            kIdents[rng_->Uniform(0, static_cast<int64_t>(std::size(kIdents)) - 1)]);
      case 2:  // unary
        return Node::Unary(rng_->Bernoulli(0.5) ? UnaryOp::kNot : UnaryOp::kNeg,
                           Gen(depth - 1));
      default: {  // binary
        static constexpr BinaryOp kOps[] = {
            BinaryOp::kAnd, BinaryOp::kOr,  BinaryOp::kEq,  BinaryOp::kNeq,
            BinaryOp::kLt,  BinaryOp::kLe,  BinaryOp::kGt,  BinaryOp::kGe,
            BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv,
            BinaryOp::kMod};
        BinaryOp op =
            kOps[rng_->Uniform(0, static_cast<int64_t>(std::size(kOps)) - 1)];
        return Node::Binary(op, Gen(depth - 1), Gen(depth - 1));
      }
    }
  }

 private:
  Rng* rng_;
};

class VmDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::StructType t("Fuzz");
    ASSERT_TRUE(t.AddScalar("la", ScalarType::kLong).ok());
    ASSERT_TRUE(t.AddScalar("lb", ScalarType::kLong).ok());
    ASSERT_TRUE(t.AddScalar("lzero", ScalarType::kLong).ok());
    ASSERT_TRUE(t.AddScalar("lnull", ScalarType::kLong).ok());
    ASSERT_TRUE(t.AddScalar("fa", ScalarType::kFloat).ok());
    ASSERT_TRUE(t.AddScalar("fb", ScalarType::kFloat).ok());
    ASSERT_TRUE(t.AddScalar("fnull", ScalarType::kFloat).ok());
    ASSERT_TRUE(t.AddScalar("sa", ScalarType::kString).ok());
    ASSERT_TRUE(t.AddScalar("snull", ScalarType::kString).ok());
    ASSERT_TRUE(t.AddScalar("ba", ScalarType::kBool).ok());
    ASSERT_TRUE(t.AddScalar("bnull", ScalarType::kBool).ok());
    ASSERT_TRUE(reg_.Register(std::move(t)).ok());
  }

  /// A randomized container: the *null members stay unwritten (they have
  /// no defaults, so they read null — the unset-data error path); the
  /// rest get small random values, lzero is 0 half the time (div/mod).
  data::Container RandomContainer(Rng* rng) {
    auto c = data::Container::Create(reg_, "Fuzz");
    EXPECT_TRUE(c.ok());
    data::Container container = std::move(*c);
    EXPECT_TRUE(container.Set("la", Value(rng->Uniform(-3, 3))).ok());
    EXPECT_TRUE(container.Set("lb", Value(rng->Uniform(-3, 3))).ok());
    EXPECT_TRUE(
        container
            .Set("lzero", Value(rng->Bernoulli(0.5) ? int64_t{0}
                                                    : rng->Uniform(1, 3)))
            .ok());
    EXPECT_TRUE(container.Set("fa", Value(0.5 * rng->Uniform(-6, 6))).ok());
    EXPECT_TRUE(container.Set("fb", Value(0.5 * rng->Uniform(-6, 6))).ok());
    EXPECT_TRUE(
        container.Set("sa", Value(std::string(1, "abc"[rng->Uniform(0, 2)])))
            .ok());
    EXPECT_TRUE(container.Set("ba", Value(rng->Bernoulli(0.5))).ok());
    return container;
  }

  data::TypeRegistry reg_;
};

TEST_F(VmDifferentialTest, TenThousandRandomExpressionsAgree) {
  Rng rng(20260806);
  ExprGen gen(&rng);

  int compiled = 0, agreed_values = 0, agreed_errors = 0;
  constexpr int kExpressions = 12000;
  for (int i = 0; i < kExpressions; ++i) {
    NodePtr node = gen.Gen(5);
    data::Container container = RandomContainer(&rng);

    auto prog = ConditionCompiler::Compile(node.get(), container);
    // Every identifier the generator emits exists in Fuzz and depth is
    // bounded, so compilation must always succeed.
    ASSERT_TRUE(prog.ok()) << node->ToString() << ": "
                           << prog.status().ToString();
    ++compiled;

    ContainerResolver resolver(container);
    Result<Value> tree = Evaluate(*node, resolver);
    Result<Value> vm = prog->Evaluate(container);

    ASSERT_EQ(tree.ok(), vm.ok())
        << node->ToString() << "\n tree: "
        << (tree.ok() ? tree->ToString() : tree.status().ToString())
        << "\n vm:   " << (vm.ok() ? vm->ToString() : vm.status().ToString());
    if (tree.ok()) {
      // No NaN can occur (division by zero errors out, % is long-only),
      // so structural Value equality is exact.
      ASSERT_EQ(*tree, *vm) << node->ToString();
      ++agreed_values;
    } else {
      ASSERT_EQ(tree.status().ToString(), vm.status().ToString())
          << node->ToString();
      ++agreed_errors;
    }

    // When the canonical text reparses (the generator can build trees the
    // grammar cannot express, e.g. chained comparisons), the reparsed
    // tree must compile to the same outcome — that is the path plan
    // compilation actually consumes.
    if (i % 100 == 0) {
      auto reparsed = Parse(node->ToString());
      if (reparsed.ok()) {
        auto prog2 = ConditionCompiler::Compile(reparsed->get(), container);
        ASSERT_TRUE(prog2.ok());
        Result<Value> vm2 = prog2->Evaluate(container);
        ASSERT_EQ(vm.ok(), vm2.ok()) << node->ToString();
        if (vm.ok()) {
          ASSERT_EQ(*vm, *vm2) << node->ToString();
        }
      }
    }
  }
  EXPECT_EQ(compiled, kExpressions);
  // Sanity: the generator must actually exercise both regimes.
  EXPECT_GT(agreed_values, 1000);
  EXPECT_GT(agreed_errors, 1000);
}

TEST_F(VmDifferentialTest, BoolCoercionAgreesUnderEvaluateBool) {
  Rng rng(7);
  ExprGen gen(&rng);
  for (int i = 0; i < 3000; ++i) {
    NodePtr node = gen.Gen(4);
    data::Container container = RandomContainer(&rng);
    auto prog = ConditionCompiler::Compile(node.get(), container);
    ASSERT_TRUE(prog.ok());

    ContainerResolver resolver(container);
    Result<bool> tree = EvaluateBool(*node, resolver);
    Result<bool> vm = prog->EvaluateBool(container);
    ASSERT_EQ(tree.ok(), vm.ok()) << node->ToString();
    if (tree.ok()) {
      ASSERT_EQ(*tree, *vm) << node->ToString();
    } else {
      ASSERT_EQ(tree.status().ToString(), vm.status().ToString())
          << node->ToString();
    }
  }
}

}  // namespace
}  // namespace exotica::expr
