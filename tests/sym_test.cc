// Unit tests for the symbolic expression / taint / constraint substrate.
#include <gtest/gtest.h>

#include "src/record/record_session.h"
#include "src/record/serialize_text.h"
#include "src/record/tvalue.h"
#include "src/sym/constraint.h"

namespace dlt {
namespace {

TEST(ExprTest, ConstFoldingOnConstruction) {
  ExprRef e = Expr::Binary(ExprOp::kAdd, Expr::Const(2), Expr::Const(3));
  ASSERT_TRUE(e->is_const());
  EXPECT_EQ(5u, e->constant());
}

TEST(ExprTest, EvalWithBindings) {
  ExprRef e = Expr::Binary(ExprOp::kMul, Expr::Input("blkcnt"), Expr::Const(512));
  Bindings b{{"blkcnt", 8}};
  Result<uint64_t> v = e->Eval(b);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(4096u, *v);
}

TEST(ExprTest, EvalMissingBindingFails) {
  ExprRef e = Expr::Input("missing");
  Bindings b;
  EXPECT_FALSE(e->Eval(b).ok());
}

TEST(ExprTest, DivisionByZeroIsError) {
  ExprRef e = Expr::Binary(ExprOp::kDiv, Expr::Input("x"), Expr::Input("y"));
  Bindings b{{"x", 10}, {"y", 0}};
  EXPECT_FALSE(e->Eval(b).ok());
}

TEST(ExprTest, ToStringParseRoundTrip) {
  // (blkid & ~0x7): the paper's Table 4 alignment expression shape.
  ExprRef e = Expr::Binary(ExprOp::kAnd, Expr::Input("blkid"), Expr::Not(Expr::Input("mask")));
  Result<ExprRef> parsed = ParseExpr(e->ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(Expr::Equal(e, *parsed));
}

struct ExprRoundTripCase {
  const char* name;
  const char* text;
  uint64_t x;
  uint64_t expect;
};

// gtest (and ctest's test discovery) name each case by its printed value.
// Without this, the case prints as raw bytes, pointer included, so the
// test names would change from build to build.
void PrintTo(const ExprRoundTripCase& c, std::ostream* os) { *os << c.name; }

class ExprRoundTripTest : public ::testing::TestWithParam<ExprRoundTripCase> {};

TEST_P(ExprRoundTripTest, ParsePrintEvalAgree) {
  const ExprRoundTripCase& c = GetParam();
  Result<ExprRef> e = ParseExpr(c.text);
  ASSERT_TRUE(e.ok()) << c.text;
  // Round-trip through the printer.
  Result<ExprRef> e2 = ParseExpr((*e)->ToString());
  ASSERT_TRUE(e2.ok());
  EXPECT_TRUE(Expr::Equal(*e, *e2)) << c.text;
  Bindings b{{"x", c.x}};
  Result<uint64_t> v = (*e)->Eval(b);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(c.expect, *v) << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExprRoundTripTest,
    ::testing::Values(ExprRoundTripCase{"const", "0x2a", 0, 0x2a},
                      ExprRoundTripCase{"input", "x", 7, 7},
                      ExprRoundTripCase{"add", "(x + 0x1)", 7, 8},
                      ExprRoundTripCase{"mul", "(x * 0x200)", 8, 4096},
                      ExprRoundTripCase{"mul_sub", "((x * 0x200) - 0x1000)", 16, 4096},
                      ExprRoundTripCase{"and_not", "(x & (~0x7))", 43, 40},
                      ExprRoundTripCase{"or_shl", "((0x8000 | (x << 0x6)) | 0x12)", 1, 0x8052},
                      ExprRoundTripCase{"shr", "(x >> 0x3)", 24, 3},
                      ExprRoundTripCase{"mod", "(x % 0x8)", 43, 3},
                      ExprRoundTripCase{"div_xor", "((x / 0x2) ^ 0xff)", 6, 0xfc}));

TEST(ExprTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseExpr("").ok());
  EXPECT_FALSE(ParseExpr("(x +)").ok());
  EXPECT_FALSE(ParseExpr("x y").ok());
  EXPECT_FALSE(ParseExpr("(x < y)").ok());
  EXPECT_FALSE(ParseExpr("0x").ok());
}

TEST(TValueTest, UntaintedStaysConcrete) {
  TValue a(5);
  TValue b(3);
  TValue c = a + b;
  EXPECT_FALSE(c.tainted());
  EXPECT_EQ(8u, c.value());
}

TEST(TValueTest, TaintPropagatesThroughArithmetic) {
  TValue blkcnt = TValue::Input("blkcnt", 8);
  TValue total = blkcnt * TValue(512);
  EXPECT_TRUE(total.tainted());
  EXPECT_EQ(4096u, total.value());
  EXPECT_EQ("(blkcnt * 0x200)", total.expr()->ToString());
}

TEST(TValueTest, TaintAccumulatesOperations) {
  // Table 4: SDCMD = ((0x8000) | ((rw) << 6)).
  TValue rw = TValue::Input("rw", 1);
  TValue cmd = TValue(0x8000) | (rw << TValue(6));
  EXPECT_TRUE(cmd.tainted());
  EXPECT_EQ(0x8040u, cmd.value());
  std::set<std::string> inputs;
  cmd.expr()->CollectInputs(&inputs);
  EXPECT_EQ(1u, inputs.count("rw"));
}

TEST(TValueTest, BitwiseNotOnTainted) {
  TValue blkid = TValue::Input("blkid", 43);
  TValue aligned = blkid & ~TValue(0x7);
  EXPECT_EQ(40u, aligned.value());
  EXPECT_TRUE(aligned.tainted());
}

TEST(ConstraintTest, EvalConjunction) {
  Constraint c;
  c.AddAtom(ConstraintAtom{Expr::Input("blkcnt"), Cmp::kGt, Expr::Const(0)});
  c.AddAtom(ConstraintAtom{Expr::Input("blkcnt"), Cmp::kLe, Expr::Const(8)});
  Bindings ok{{"blkcnt", 5}};
  Bindings nope{{"blkcnt", 20}};
  EXPECT_TRUE(*c.Eval(ok));
  EXPECT_FALSE(*c.Eval(nope));
}

TEST(ConstraintTest, AtomNegation) {
  ConstraintAtom a{Expr::Input("x"), Cmp::kLe, Expr::Const(8)};
  ConstraintAtom n = Negated(a);
  EXPECT_EQ(Cmp::kGt, n.cmp);
  Bindings b{{"x", 9}};
  EXPECT_FALSE(*a.Eval(b));
  EXPECT_TRUE(*n.Eval(b));
}

TEST(ConstraintTest, ToStringParseRoundTrip) {
  Constraint c;
  c.AddAtom(ConstraintAtom{Expr::Input("blkcnt"), Cmp::kGe, Expr::Const(0)});
  c.AddAtom(ConstraintAtom{Expr::Binary(ExprOp::kMul, Expr::Input("blkcnt"), Expr::Const(512)),
                           Cmp::kLe, Expr::Const(0x1000)});
  c.AddAtom(ConstraintAtom{Expr::Input("rw"), Cmp::kEq, Expr::Const(1)});
  Result<Constraint> parsed = ParseConstraint(c.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(c.ToString(), parsed->ToString());
}

TEST(ConstraintTest, EmptyConstraintIsTrue) {
  Constraint c;
  EXPECT_EQ("true", c.ToString());
  Result<Constraint> parsed = ParseConstraint("true");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
  EXPECT_TRUE(*c.Eval({}));
}

TEST(ConstraintTest, DuplicateAtomsDeduplicated) {
  Constraint c;
  c.AddAtom(ConstraintAtom{Expr::Input("rw"), Cmp::kEq, Expr::Const(1)});
  c.AddAtom(ConstraintAtom{Expr::Input("rw"), Cmp::kEq, Expr::Const(1)});
  EXPECT_EQ(1u, c.atoms().size());
}

class CompareValuesTest : public ::testing::TestWithParam<std::tuple<Cmp, uint64_t, uint64_t>> {};

TEST_P(CompareValuesTest, MatchesReferenceSemantics) {
  auto [cmp, a, b] = GetParam();
  bool expect = false;
  switch (cmp) {
    case Cmp::kEq: expect = a == b; break;
    case Cmp::kNe: expect = a != b; break;
    case Cmp::kLt: expect = a < b; break;
    case Cmp::kLe: expect = a <= b; break;
    case Cmp::kGt: expect = a > b; break;
    case Cmp::kGe: expect = a >= b; break;
  }
  EXPECT_EQ(expect, CompareValues(cmp, a, b));
  // Negation must flip the verdict for every pair.
  EXPECT_EQ(!expect, CompareValues(NegateCmp(cmp), a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompareValuesTest,
    ::testing::Combine(::testing::Values(Cmp::kEq, Cmp::kNe, Cmp::kLt, Cmp::kLe, Cmp::kGt,
                                         Cmp::kGe),
                       ::testing::Values(0ull, 1ull, 8ull, 0xffffffffull),
                       ::testing::Values(0ull, 1ull, 8ull, 0xffffffffull)));

}  // namespace
}  // namespace dlt
