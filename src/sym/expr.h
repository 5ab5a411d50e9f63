// Symbolic expression trees. The recorder's dynamic taint tracking represents every
// tainted value as (concrete value, expression over named inputs); expressions become
// the parameterized output values of interaction templates ("taint sink & operations",
// paper Tables 4 and 6) and the replayer evaluates them against trustlet inputs.
#ifndef SRC_SYM_EXPR_H_
#define SRC_SYM_EXPR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>

#include "src/soc/status.h"

namespace dlt {

// Maps input symbol names (entry parameters, environment returns, device reads)
// to concrete values for one replay run.
using Bindings = std::map<std::string, uint64_t>;

class Expr;
using ExprRef = std::shared_ptr<const Expr>;

enum class ExprOp : uint8_t {
  kConst,
  kInput,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kNot,  // unary bitwise not
};

class Expr {
 public:
  static ExprRef Const(uint64_t v);
  static ExprRef Input(std::string name);
  static ExprRef Binary(ExprOp op, ExprRef lhs, ExprRef rhs);  // constant-folds
  static ExprRef Not(ExprRef operand);

  ExprOp op() const { return op_; }
  uint64_t constant() const { return constant_; }
  const std::string& input_name() const { return input_name_; }
  const ExprRef& lhs() const { return lhs_; }
  const ExprRef& rhs() const { return rhs_; }

  bool is_const() const { return op_ == ExprOp::kConst; }
  bool is_input() const { return op_ == ExprOp::kInput; }

  Result<uint64_t> Eval(const Bindings& bindings) const;
  void CollectInputs(std::set<std::string>* out) const;
  std::string ToString() const;

  // Structural equality.
  static bool Equal(const ExprRef& a, const ExprRef& b);

 private:
  Expr() = default;

  ExprOp op_ = ExprOp::kConst;
  uint64_t constant_ = 0;
  std::string input_name_;
  ExprRef lhs_;
  ExprRef rhs_;
};

const char* ExprOpToken(ExprOp op);

}  // namespace dlt

#endif  // SRC_SYM_EXPR_H_
