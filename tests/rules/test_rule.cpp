// Rule patterns, operands, actions, and the builder.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "rules/rule.hpp"

namespace bsk::rules {
namespace {

class RecordingSink : public OperationSink {
 public:
  void fire_operation(const std::string& op, const std::string& data) override {
    ops.emplace_back(op, data);
  }
  std::vector<std::pair<std::string, std::string>> ops;
};

TEST(Operand, ResolveLiteralAndConstant) {
  ConstantTable c;
  c.set("K", 9.0);
  EXPECT_DOUBLE_EQ(*resolve(Operand{3.5}, c), 3.5);
  EXPECT_DOUBLE_EQ(*resolve(Operand{std::string("K")}, c), 9.0);
  EXPECT_FALSE(resolve(Operand{std::string("missing")}, c).has_value());
}

// gtest names a parameter without a PrintTo by its raw bytes, padding
// included. The padding is spelled out and zeroed so the test names (and
// the ctest names discovered from them) do not change from run to run.
struct CmpCase {
  CmpCase(CmpOp o, double l, double r, bool e)
      : op(o), lhs(l), rhs(r), expect(e) {}
  CmpOp op;
  std::uint32_t pad_after_op = 0;
  double lhs, rhs;
  bool expect;
  std::uint8_t pad_tail[7] = {};
};
static_assert(sizeof(CmpCase) == 32, "CmpCase must have no implicit padding");

class PatternCmp : public ::testing::TestWithParam<CmpCase> {};

TEST_P(PatternCmp, ComparisonSemantics) {
  const CmpCase& pc = GetParam();
  WorkingMemory wm;
  wm.set("B", pc.lhs);
  ConstantTable c;
  Pattern p{"B", false, {{pc.op, Operand{pc.rhs}}}};
  EXPECT_EQ(p.matches(wm, c), pc.expect);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, PatternCmp,
    ::testing::Values(CmpCase{CmpOp::Lt, 1, 2, true},
                      CmpCase{CmpOp::Lt, 2, 2, false},
                      CmpCase{CmpOp::Le, 2, 2, true},
                      CmpCase{CmpOp::Le, 3, 2, false},
                      CmpCase{CmpOp::Gt, 3, 2, true},
                      CmpCase{CmpOp::Gt, 2, 2, false},
                      CmpCase{CmpOp::Ge, 2, 2, true},
                      CmpCase{CmpOp::Ge, 1, 2, false},
                      CmpCase{CmpOp::Eq, 2, 2, true},
                      CmpCase{CmpOp::Eq, 1, 2, false},
                      CmpCase{CmpOp::Ne, 1, 2, true},
                      CmpCase{CmpOp::Ne, 2, 2, false}));

TEST(Pattern, AbsentBeanDoesNotMatch) {
  WorkingMemory wm;
  ConstantTable c;
  Pattern p{"Missing", false, {{CmpOp::Lt, Operand{1.0}}}};
  EXPECT_FALSE(p.matches(wm, c));
}

TEST(Pattern, NegatedAbsentBeanMatches) {
  WorkingMemory wm;
  ConstantTable c;
  Pattern p{"Missing", true, {{CmpOp::Lt, Operand{1.0}}}};
  EXPECT_TRUE(p.matches(wm, c));
}

TEST(Pattern, NegatedMatchingBeanFails) {
  WorkingMemory wm;
  wm.set("B", 0.5);
  ConstantTable c;
  Pattern p{"B", true, {{CmpOp::Lt, Operand{1.0}}}};
  EXPECT_FALSE(p.matches(wm, c));
}

TEST(Pattern, MissingConstantNeverMatches) {
  WorkingMemory wm;
  wm.set("B", 0.5);
  ConstantTable c;
  Pattern p{"B", false, {{CmpOp::Lt, Operand{std::string("UNDEFINED")}}}};
  EXPECT_FALSE(p.matches(wm, c));
}

TEST(Pattern, MultipleTestsAreConjunctive) {
  WorkingMemory wm;
  wm.set("B", 5.0);
  ConstantTable c;
  Pattern p{"B", false,
            {{CmpOp::Gt, Operand{1.0}}, {CmpOp::Lt, Operand{10.0}}}};
  EXPECT_TRUE(p.matches(wm, c));
  wm.set("B", 20.0);
  EXPECT_FALSE(p.matches(wm, c));
}

TEST(MakeRule, SetDataAttachesToNextFire) {
  std::vector<ActionStmt> actions{SetData{"payloadA"}, FireOp{"OP1"},
                                  SetData{"payloadB"}, FireOp{"OP2"}};
  Rule r = make_rule("r", 0, {}, actions);
  WorkingMemory wm;
  ConstantTable c;
  RecordingSink sink;
  RuleContext ctx{wm, c, sink};
  EXPECT_TRUE(r.fireable(wm, c));  // empty condition always fires
  r.fire(ctx);
  ASSERT_EQ(sink.ops.size(), 2u);
  EXPECT_EQ(sink.ops[0], (std::pair<std::string, std::string>{"OP1", "payloadA"}));
  EXPECT_EQ(sink.ops[1], (std::pair<std::string, std::string>{"OP2", "payloadB"}));
}

TEST(MakeRule, SetFactWritesWorkingMemory) {
  ConstantTable c;
  c.set("K", 7.0);
  std::vector<ActionStmt> actions{SetFact{"Out", Operand{std::string("K")}}};
  Rule r = make_rule("r", 0, {}, actions);
  WorkingMemory wm;
  RecordingSink sink;
  RuleContext ctx{wm, c, sink};
  r.fire(ctx);
  EXPECT_DOUBLE_EQ(*wm.get("Out"), 7.0);
}

TEST(RuleBuilder, PatternsAndPredicatesCompose) {
  bool fired = false;
  Rule r = RuleBuilder("combo")
               .salience(5)
               .when("A", CmpOp::Gt, 1.0)
               .when_not("B", CmpOp::Gt, 0.0)
               .when_pred([](const WorkingMemory& wm, const ConstantTable&) {
                 return wm.get("A").value_or(0) < 100.0;
               })
               .then_do([&](RuleContext&) { fired = true; })
               .build();
  EXPECT_EQ(r.salience(), 5);

  WorkingMemory wm;
  ConstantTable c;
  RecordingSink sink;
  wm.set("A", 50.0);
  EXPECT_TRUE(r.fireable(wm, c));
  wm.set("B", 1.0);  // negated pattern now fails
  EXPECT_FALSE(r.fireable(wm, c));
  wm.retract("B");
  wm.set("A", 200.0);  // predicate fails
  EXPECT_FALSE(r.fireable(wm, c));

  wm.set("A", 50.0);
  RuleContext ctx{wm, c, sink};
  r.fire(ctx);
  EXPECT_TRUE(fired);
}

TEST(RuleBuilder, StatementActionsWork) {
  Rule r = RuleBuilder("r")
               .when("A", CmpOp::Ge, 0.0)
               .then_set_data("d")
               .then_fire("OP")
               .then_set("Out", 1.0)
               .build();
  WorkingMemory wm;
  wm.set("A", 0.0);
  ConstantTable c;
  RecordingSink sink;
  RuleContext ctx{wm, c, sink};
  ASSERT_TRUE(r.fireable(wm, c));
  r.fire(ctx);
  ASSERT_EQ(sink.ops.size(), 1u);
  EXPECT_EQ(sink.ops[0].first, "OP");
  EXPECT_EQ(sink.ops[0].second, "d");
  EXPECT_DOUBLE_EQ(*wm.get("Out"), 1.0);
}

}  // namespace
}  // namespace bsk::rules
