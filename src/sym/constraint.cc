#include "src/sym/constraint.h"

#include <sstream>

namespace dlt {

const char* CmpToken(Cmp c) {
  switch (c) {
    case Cmp::kEq: return "==";
    case Cmp::kNe: return "!=";
    case Cmp::kLt: return "<";
    case Cmp::kLe: return "<=";
    case Cmp::kGt: return ">";
    case Cmp::kGe: return ">=";
  }
  return "?";
}

bool CompareValues(Cmp cmp, uint64_t a, uint64_t b) {
  switch (cmp) {
    case Cmp::kEq: return a == b;
    case Cmp::kNe: return a != b;
    case Cmp::kLt: return a < b;
    case Cmp::kLe: return a <= b;
    case Cmp::kGt: return a > b;
    case Cmp::kGe: return a >= b;
  }
  return false;
}

Result<bool> ConstraintAtom::Eval(const Bindings& bindings) const {
  DLT_ASSIGN_OR_RETURN(uint64_t a, lhs->Eval(bindings));
  DLT_ASSIGN_OR_RETURN(uint64_t b, rhs->Eval(bindings));
  return CompareValues(cmp, a, b);
}

std::string ConstraintAtom::ToString() const {
  std::ostringstream os;
  os << lhs->ToString() << " " << CmpToken(cmp) << " " << rhs->ToString();
  return os.str();
}

bool ConstraintAtom::Equal(const ConstraintAtom& a, const ConstraintAtom& b) {
  return a.cmp == b.cmp && Expr::Equal(a.lhs, b.lhs) && Expr::Equal(a.rhs, b.rhs);
}

void Constraint::AddAtom(ConstraintAtom atom) {
  for (const auto& existing : atoms_) {
    if (ConstraintAtom::Equal(existing, atom)) {
      return;
    }
  }
  atoms_.push_back(std::move(atom));
}

Result<bool> Constraint::Eval(const Bindings& bindings) const {
  for (const auto& a : atoms_) {
    DLT_ASSIGN_OR_RETURN(bool ok, a.Eval(bindings));
    if (!ok) {
      return false;
    }
  }
  return true;
}

void Constraint::CollectInputs(std::set<std::string>* out) const {
  for (const auto& a : atoms_) {
    a.lhs->CollectInputs(out);
    a.rhs->CollectInputs(out);
  }
}

std::string Constraint::ToString() const {
  if (atoms_.empty()) {
    return "true";
  }
  std::ostringstream os;
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i > 0) {
      os << " && ";
    }
    os << atoms_[i].ToString();
  }
  return os.str();
}

}  // namespace dlt
