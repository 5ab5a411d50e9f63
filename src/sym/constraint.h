// Constraints: conjunctions of comparison atoms over symbolic expressions.
// They appear in two places of the template IR: per-template initial constraints
// (which inputs a template covers) and per-event constraints on state-changing
// device inputs (which values a faithful replay must observe).
#ifndef SRC_SYM_CONSTRAINT_H_
#define SRC_SYM_CONSTRAINT_H_

#include <string>
#include <vector>

#include "src/sym/expr.h"

namespace dlt {

enum class Cmp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpToken(Cmp c);
bool CompareValues(Cmp cmp, uint64_t a, uint64_t b);

struct ConstraintAtom {
  ExprRef lhs;
  Cmp cmp = Cmp::kEq;
  ExprRef rhs;

  Result<bool> Eval(const Bindings& bindings) const;
  std::string ToString() const;
  static bool Equal(const ConstraintAtom& a, const ConstraintAtom& b);
};

class Constraint {
 public:
  Constraint() = default;

  void AddAtom(ConstraintAtom atom);
  bool empty() const { return atoms_.empty(); }
  const std::vector<ConstraintAtom>& atoms() const { return atoms_; }

  // True iff all atoms hold. Missing bindings are an error surfaced as kNotFound.
  Result<bool> Eval(const Bindings& bindings) const;

  void CollectInputs(std::set<std::string>* out) const;
  std::string ToString() const;  // "a && b && c" ("true" when empty)

 private:
  std::vector<ConstraintAtom> atoms_;
};

}  // namespace dlt

#endif  // SRC_SYM_CONSTRAINT_H_
