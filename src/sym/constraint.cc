#include "src/sym/constraint.h"

#include <algorithm>
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

Cmp NegateCmp(Cmp c) {
  switch (c) {
    case Cmp::kEq: return Cmp::kNe;
    case Cmp::kNe: return Cmp::kEq;
    case Cmp::kLt: return Cmp::kGe;
    case Cmp::kLe: return Cmp::kGt;
    case Cmp::kGt: return Cmp::kLe;
    case Cmp::kGe: return Cmp::kLt;
  }
  return Cmp::kEq;
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

Result<ConstraintAtom> ConstraintAtom::Parse(std::string_view text) {
  // Find the comparison operator at the top nesting level.
  int depth = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '(') {
      ++depth;
    } else if (c == ')') {
      --depth;
    } else if (depth == 0) {
      Cmp cmp;
      size_t op_len = 0;
      if (c == '=' && i + 1 < text.size() && text[i + 1] == '=') {
        cmp = Cmp::kEq;
        op_len = 2;
      } else if (c == '!' && i + 1 < text.size() && text[i + 1] == '=') {
        cmp = Cmp::kNe;
        op_len = 2;
      } else if (c == '<' && i + 1 < text.size() && text[i + 1] == '=') {
        cmp = Cmp::kLe;
        op_len = 2;
      } else if (c == '>' && i + 1 < text.size() && text[i + 1] == '=') {
        cmp = Cmp::kGe;
        op_len = 2;
      } else if (c == '<' && (i + 1 >= text.size() || text[i + 1] != '<')) {
        cmp = Cmp::kLt;
        op_len = 1;
      } else if (c == '>' && (i + 1 >= text.size() || text[i + 1] != '>')) {
        cmp = Cmp::kGt;
        op_len = 1;
      } else {
        continue;
      }
      DLT_ASSIGN_OR_RETURN(ExprRef lhs, Expr::Parse(text.substr(0, i)));
      DLT_ASSIGN_OR_RETURN(ExprRef rhs, Expr::Parse(text.substr(i + op_len)));
      return ConstraintAtom{std::move(lhs), cmp, std::move(rhs)};
    }
  }
  return Status::kCorrupt;
}

namespace {
ConstraintAtom MakeAtom(const TValue& lhs, Cmp cmp, const TValue& rhs) {
  return ConstraintAtom{lhs.expr(), cmp, rhs.expr()};
}
}  // namespace

ConstraintAtom CmpEq(const TValue& lhs, const TValue& rhs) { return MakeAtom(lhs, Cmp::kEq, rhs); }
ConstraintAtom CmpNe(const TValue& lhs, const TValue& rhs) { return MakeAtom(lhs, Cmp::kNe, rhs); }
ConstraintAtom CmpLt(const TValue& lhs, const TValue& rhs) { return MakeAtom(lhs, Cmp::kLt, rhs); }
ConstraintAtom CmpLe(const TValue& lhs, const TValue& rhs) { return MakeAtom(lhs, Cmp::kLe, rhs); }
ConstraintAtom CmpGt(const TValue& lhs, const TValue& rhs) { return MakeAtom(lhs, Cmp::kGt, rhs); }
ConstraintAtom CmpGe(const TValue& lhs, const TValue& rhs) { return MakeAtom(lhs, Cmp::kGe, rhs); }

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

bool Constraint::Equal(const Constraint& a, const Constraint& b) {
  return std::equal(a.atoms_.begin(), a.atoms_.end(), b.atoms_.begin(), b.atoms_.end(),
                    ConstraintAtom::Equal);
}

void Constraint::Merge(const Constraint& other) {
  for (const auto& a : other.atoms_) {
    AddAtom(a);
  }
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

Result<Constraint> Constraint::Parse(std::string_view text) {
  Constraint c;
  // Trim.
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  if (text == "true" || text.empty()) {
    return c;
  }
  size_t start = 0;
  int depth = 0;
  for (size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == '(') {
      ++depth;
    } else if (text[i] == ')') {
      --depth;
    } else if (depth == 0 && text[i] == '&' && text[i + 1] == '&') {
      DLT_ASSIGN_OR_RETURN(ConstraintAtom atom, ConstraintAtom::Parse(text.substr(start, i - start)));
      c.AddAtom(std::move(atom));
      start = i + 2;
      ++i;
    }
  }
  DLT_ASSIGN_OR_RETURN(ConstraintAtom atom, ConstraintAtom::Parse(text.substr(start)));
  c.AddAtom(std::move(atom));
  return c;
}

}  // namespace dlt
