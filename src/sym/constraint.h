// Constraints: conjunctions of comparison atoms over symbolic expressions.
// They appear in two places of the template IR: per-template initial constraints
// (which inputs a template covers) and per-event constraints on state-changing
// device inputs (which values a faithful replay must observe).
#ifndef SRC_SYM_CONSTRAINT_H_
#define SRC_SYM_CONSTRAINT_H_

#include <string>
#include <vector>

#include "src/sym/expr.h"
#include "src/sym/tvalue.h"

namespace dlt {

enum class Cmp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpToken(Cmp c);
Cmp NegateCmp(Cmp c);
bool CompareValues(Cmp cmp, uint64_t a, uint64_t b);

struct ConstraintAtom {
  ExprRef lhs;
  Cmp cmp = Cmp::kEq;
  ExprRef rhs;

  Result<bool> Eval(const Bindings& bindings) const;
  ConstraintAtom Negated() const { return ConstraintAtom{lhs, NegateCmp(cmp), rhs}; }
  std::string ToString() const;
  static Result<ConstraintAtom> Parse(std::string_view text);
  static bool Equal(const ConstraintAtom& a, const ConstraintAtom& b);
};

// Convenience builders used at gold-driver branch points, e.g.
//   if (io.Branch(CmpLe(blkcnt, 8), DLT_HERE)) { ... }
ConstraintAtom CmpEq(const TValue& lhs, const TValue& rhs);
ConstraintAtom CmpNe(const TValue& lhs, const TValue& rhs);
ConstraintAtom CmpLt(const TValue& lhs, const TValue& rhs);
ConstraintAtom CmpLe(const TValue& lhs, const TValue& rhs);
ConstraintAtom CmpGt(const TValue& lhs, const TValue& rhs);
ConstraintAtom CmpGe(const TValue& lhs, const TValue& rhs);

class Constraint {
 public:
  Constraint() = default;

  void AddAtom(ConstraintAtom atom);
  bool empty() const { return atoms_.empty(); }
  const std::vector<ConstraintAtom>& atoms() const { return atoms_; }

  // True iff all atoms hold. Missing bindings are an error surfaced as kNotFound.
  Result<bool> Eval(const Bindings& bindings) const;

  // Drops atoms structurally identical to already-present ones.
  void Merge(const Constraint& other);

  void CollectInputs(std::set<std::string>* out) const;
  std::string ToString() const;  // "a && b && c" ("true" when empty)
  static Result<Constraint> Parse(std::string_view text);
  // Structural equality: the same atoms in the same order.
  static bool Equal(const Constraint& a, const Constraint& b);

 private:
  std::vector<ConstraintAtom> atoms_;
};

}  // namespace dlt

#endif  // SRC_SYM_CONSTRAINT_H_
