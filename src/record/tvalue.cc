#include "src/record/tvalue.h"

namespace dlt {

namespace {

uint64_t ApplyConcrete(ExprOp op, uint64_t a, uint64_t b) {
  switch (op) {
    case ExprOp::kAnd: return a & b;
    case ExprOp::kOr: return a | b;
    case ExprOp::kXor: return a ^ b;
    case ExprOp::kShl: return b >= 64 ? 0 : a << b;
    case ExprOp::kShr: return b >= 64 ? 0 : a >> b;
    case ExprOp::kAdd: return a + b;
    case ExprOp::kSub: return a - b;
    case ExprOp::kMul: return a * b;
    case ExprOp::kDiv: return b == 0 ? 0 : a / b;
    case ExprOp::kMod: return b == 0 ? 0 : a % b;
    default: return 0;
  }
}

}  // namespace

TValue BinOp(ExprOp op, const TValue& a, const TValue& b) {
  uint64_t concrete = ApplyConcrete(op, a.value(), b.value());
  if (!a.tainted() && !b.tainted()) {
    return TValue(concrete);
  }
  return TValue(concrete, Expr::Binary(op, a.expr(), b.expr()));
}

TValue operator~(const TValue& a) {
  if (!a.tainted()) {
    return TValue(~a.value());
  }
  return TValue(~a.value(), Expr::Not(a.expr()));
}

}  // namespace dlt
