// TValue: a concrete 64-bit value carrying an optional taint expression.
// Gold drivers compute request parameters with TValues; arithmetic/bitwise
// operators propagate taints exactly as the paper's dynamic taint tracking
// accumulates operations from source to sink (§4.2, Challenge II).
#ifndef SRC_RECORD_TVALUE_H_
#define SRC_RECORD_TVALUE_H_

#include <cstdint>

#include "src/sym/expr.h"

namespace dlt {

class TValue {
 public:
  TValue() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): untainted literals are pervasive.
  TValue(uint64_t v) : v_(v) {}
  TValue(uint64_t v, ExprRef e) : v_(v), e_(std::move(e)) {}

  static TValue Input(const std::string& name, uint64_t concrete) {
    return TValue(concrete, Expr::Input(name));
  }

  uint64_t value() const { return v_; }
  uint32_t value32() const { return static_cast<uint32_t>(v_); }
  bool tainted() const { return e_ != nullptr; }

  // The symbolic form: the taint expression when tainted, a constant otherwise.
  ExprRef expr() const { return e_ != nullptr ? e_ : Expr::Const(v_); }

 private:
  friend TValue BinOp(ExprOp op, const TValue& a, const TValue& b);

  uint64_t v_ = 0;
  ExprRef e_;
};

TValue BinOp(ExprOp op, const TValue& a, const TValue& b);

inline TValue operator&(const TValue& a, const TValue& b) { return BinOp(ExprOp::kAnd, a, b); }
inline TValue operator|(const TValue& a, const TValue& b) { return BinOp(ExprOp::kOr, a, b); }
inline TValue operator^(const TValue& a, const TValue& b) { return BinOp(ExprOp::kXor, a, b); }
inline TValue operator<<(const TValue& a, const TValue& b) { return BinOp(ExprOp::kShl, a, b); }
inline TValue operator>>(const TValue& a, const TValue& b) { return BinOp(ExprOp::kShr, a, b); }
inline TValue operator+(const TValue& a, const TValue& b) { return BinOp(ExprOp::kAdd, a, b); }
inline TValue operator-(const TValue& a, const TValue& b) { return BinOp(ExprOp::kSub, a, b); }
inline TValue operator*(const TValue& a, const TValue& b) { return BinOp(ExprOp::kMul, a, b); }
inline TValue operator/(const TValue& a, const TValue& b) { return BinOp(ExprOp::kDiv, a, b); }
inline TValue operator%(const TValue& a, const TValue& b) { return BinOp(ExprOp::kMod, a, b); }
TValue operator~(const TValue& a);

}  // namespace dlt

#endif  // SRC_RECORD_TVALUE_H_
