#include "src/sym/expr.h"

#include <sstream>

namespace dlt {

namespace {

Result<uint64_t> Apply(ExprOp op, uint64_t a, uint64_t b) {
  switch (op) {
    case ExprOp::kAnd: return a & b;
    case ExprOp::kOr: return a | b;
    case ExprOp::kXor: return a ^ b;
    case ExprOp::kShl: return b >= 64 ? uint64_t{0} : (a << b);
    case ExprOp::kShr: return b >= 64 ? uint64_t{0} : (a >> b);
    case ExprOp::kAdd: return a + b;
    case ExprOp::kSub: return a - b;
    case ExprOp::kMul: return a * b;
    case ExprOp::kDiv: return b == 0 ? Result<uint64_t>(Status::kInvalidArg) : Result<uint64_t>(a / b);
    case ExprOp::kMod: return b == 0 ? Result<uint64_t>(Status::kInvalidArg) : Result<uint64_t>(a % b);
    default: return Status::kInvalidArg;
  }
}

}  // namespace

const char* ExprOpToken(ExprOp op) {
  switch (op) {
    case ExprOp::kAnd: return "&";
    case ExprOp::kOr: return "|";
    case ExprOp::kXor: return "^";
    case ExprOp::kShl: return "<<";
    case ExprOp::kShr: return ">>";
    case ExprOp::kAdd: return "+";
    case ExprOp::kSub: return "-";
    case ExprOp::kMul: return "*";
    case ExprOp::kDiv: return "/";
    case ExprOp::kMod: return "%";
    case ExprOp::kNot: return "~";
    case ExprOp::kConst: return "<const>";
    case ExprOp::kInput: return "<input>";
  }
  return "?";
}

// Nodes are built on the stack and moved into make_shared, so each is one
// allocation with its reference counts.
ExprRef Expr::Const(uint64_t v) {
  Expr e;
  e.op_ = ExprOp::kConst;
  e.constant_ = v;
  return std::make_shared<const Expr>(std::move(e));
}

ExprRef Expr::Input(std::string name) {
  Expr e;
  e.op_ = ExprOp::kInput;
  e.input_name_ = std::move(name);
  return std::make_shared<const Expr>(std::move(e));
}

ExprRef Expr::Binary(ExprOp op, ExprRef lhs, ExprRef rhs) {
  if (lhs == nullptr || rhs == nullptr) {
    return nullptr;
  }
  if (lhs->is_const() && rhs->is_const()) {
    Result<uint64_t> folded = Apply(op, lhs->constant_, rhs->constant_);
    if (folded.ok()) {
      return Const(*folded);
    }
  }
  Expr e;
  e.op_ = op;
  e.lhs_ = std::move(lhs);
  e.rhs_ = std::move(rhs);
  return std::make_shared<const Expr>(std::move(e));
}

ExprRef Expr::Not(ExprRef operand) {
  if (operand == nullptr) {
    return nullptr;
  }
  if (operand->is_const()) {
    return Const(~operand->constant_);
  }
  Expr e;
  e.op_ = ExprOp::kNot;
  e.lhs_ = std::move(operand);
  return std::make_shared<const Expr>(std::move(e));
}

Result<uint64_t> Expr::Eval(const Bindings& bindings) const {
  switch (op_) {
    case ExprOp::kConst:
      return constant_;
    case ExprOp::kInput: {
      auto it = bindings.find(input_name_);
      if (it == bindings.end()) {
        return Status::kNotFound;
      }
      return it->second;
    }
    case ExprOp::kNot: {
      DLT_ASSIGN_OR_RETURN(uint64_t v, lhs_->Eval(bindings));
      return ~v;
    }
    default: {
      DLT_ASSIGN_OR_RETURN(uint64_t a, lhs_->Eval(bindings));
      DLT_ASSIGN_OR_RETURN(uint64_t b, rhs_->Eval(bindings));
      return Apply(op_, a, b);
    }
  }
}

void Expr::CollectInputs(std::set<std::string>* out) const {
  switch (op_) {
    case ExprOp::kConst:
      return;
    case ExprOp::kInput:
      out->insert(input_name_);
      return;
    case ExprOp::kNot:
      lhs_->CollectInputs(out);
      return;
    default:
      lhs_->CollectInputs(out);
      rhs_->CollectInputs(out);
      return;
  }
}

std::string Expr::ToString() const {
  std::ostringstream os;
  switch (op_) {
    case ExprOp::kConst:
      os << "0x" << std::hex << constant_;
      break;
    case ExprOp::kInput:
      os << input_name_;
      break;
    case ExprOp::kNot:
      os << "(~" << lhs_->ToString() << ")";
      break;
    default:
      os << "(" << lhs_->ToString() << " " << ExprOpToken(op_) << " " << rhs_->ToString() << ")";
      break;
  }
  return os.str();
}

bool Expr::Equal(const ExprRef& a, const ExprRef& b) {
  if (a == b) {
    return true;
  }
  if (a == nullptr || b == nullptr || a->op_ != b->op_) {
    return false;
  }
  switch (a->op_) {
    case ExprOp::kConst: return a->constant_ == b->constant_;
    case ExprOp::kInput: return a->input_name_ == b->input_name_;
    case ExprOp::kNot: return Equal(a->lhs_, b->lhs_);
    default: return Equal(a->lhs_, b->lhs_) && Equal(a->rhs_, b->rhs_);
  }
}

}  // namespace dlt
