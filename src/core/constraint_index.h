// Constraint-indexed template selection (ISSUE 9, ROADMAP item 1).
//
// The paper selects "the one interaction template whose initial constraints
// match the invoke" (§5) — a linear scan in the seed store. At fleet scale
// (10k–100k templates per entry) that collapses, so at registration we factor
// each candidate's initial-constraint conjunction into per-scalar
// *discriminating gates* — necessary conditions of three machine-checkable
// shapes:
//
//   eq     input == C            (either operand order)
//   range  input <= / < / >= / > C   → an inclusive [lo, hi] window
//   mask   (input & M) == C      (the And either operand order)
//
// and assemble one decision structure per (driverlet, entry) slot:
//   dimension 1: exact-value hash buckets on the eq field covering the most
//                candidates;
//   dimension 2: an elementary-segment interval list on the best range field
//                among the rest;
//   dimension 3: hash buckets on (value & M) for the best (field, M) mask
//                among the rest;
//   residual:    candidates with no usable gate — always probed, exactly the
//                old Eval path.
//
// Soundness (why probing a subset preserves selection semantics byte-for-byte):
// a gate is a *necessary* condition, so a candidate pruned by its gate can
// never be chosen by the linear scan — if the gate's field is bound to a
// non-matching value its conjunction evaluates false (rejected, not selected);
// if the field is unbound, Eval errors or the missing-param check skips it.
// Every candidate the linear scan *could* select is probed, in the same slot
// order (the probe result is sorted by candidate position), so the selected
// template, first-match-wins, the ambiguity warning and kNoTemplate are
// identical. The rejected-candidates report is the one observable the subset
// cannot reproduce (pruned candidates never Eval), so TemplateStore routes
// rejected!=nullptr calls through the linear path. See docs/template_store.md.
#ifndef SRC_CORE_CONSTRAINT_INDEX_H_
#define SRC_CORE_CONSTRAINT_INDEX_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sym/constraint.h"

namespace dlt {

// One discriminating compare factored out of a conjunction.
struct ConstraintGate {
  enum class Kind : uint8_t { kEq, kRange, kMask };
  Kind kind = Kind::kEq;
  std::string field;
  uint64_t eq = 0;              // kEq: field == eq
  uint64_t lo = 0;              // kRange: lo <= field <= hi (inclusive);
  uint64_t hi = 0;              //   lo > hi encodes "never satisfiable"
  uint64_t mask = 0;            // kMask: (field & mask) == want
  uint64_t want = 0;
};

// Extracts every gate from |c|'s atoms. Atoms that do not match a gate shape
// (Ne, input-vs-input, compound arithmetic, ...) contribute nothing — a
// candidate with no gates lands in the residual list.
std::vector<ConstraintGate> FactorGates(const Constraint& c);

// The per-slot decision structure. Built once at registration (Population
// build time, under the store's swap mutex), immutable afterwards — fleet
// shards share it read-only through Population snapshots.
class EntryConstraintIndex {
 public:
  // Slots smaller than this keep the plain linear scan: the probe set-up costs
  // more than it saves, and small slots already meet the scan bound.
  static constexpr size_t kMinIndexedCandidates = 9;

  // |initials| is the slot's candidate list in slot order (position == the
  // candidate index Probe reports).
  void Build(const std::vector<const Constraint*>& initials);

  // True when at least one candidate was captured by a discriminating
  // dimension (i.e. probing beats scanning).
  bool discriminating() const { return indexed_candidates_ > 0; }

  // Appends, in ascending candidate order, every candidate that could match
  // |scalars|. The caller runs the ordinary per-candidate selection loop
  // (param check + Eval) over the result.
  void Probe(const Bindings& scalars, std::vector<uint32_t>* out) const;

  // Introspection (tests, bench, docs).
  size_t residual_count() const { return residual_.size(); }
  size_t indexed_count() const { return indexed_candidates_; }
  size_t dropped_count() const { return dropped_; }
  const std::string& eq_field() const { return eq_field_; }
  const std::string& range_field() const { return range_field_; }
  const std::string& mask_field() const { return mask_field_; }

 private:
  std::string eq_field_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> eq_buckets_;

  std::string range_field_;
  std::vector<uint64_t> seg_starts_;             // sorted elementary-segment starts
  std::vector<std::vector<uint32_t>> seg_cands_;  // candidates covering each segment

  std::string mask_field_;
  uint64_t mask_ = 0;
  std::unordered_map<uint64_t, std::vector<uint32_t>> mask_buckets_;

  std::vector<uint32_t> residual_;
  size_t indexed_candidates_ = 0;
  size_t dropped_ = 0;  // provably unsatisfiable candidates (never selectable)
};

}  // namespace dlt

#endif  // SRC_CORE_CONSTRAINT_INDEX_H_
