// Input-space coverage accounting for record campaigns (paper §4 "How to use"):
// after each record run the developer sees the cumulative covered region, e.g.
// "0 < blkcnt <= 0x100, rw = {0x0 | 0x1}", and records more runs until satisfied.
#ifndef SRC_RECORD_COVERAGE_H_
#define SRC_RECORD_COVERAGE_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/interaction_template.h"

namespace dlt {

struct CoverageRange {
  uint64_t lo = 0;
  uint64_t hi = 0;  // inclusive
};

struct ParamCoverage {
  std::vector<CoverageRange> ranges;  // sorted, disjoint, merged
  bool unconstrained = false;         // some template accepts any value
};

using Coverage = std::map<std::string, ParamCoverage>;

// Computes coverage from the templates' initial constraints. Only atoms of the
// form  param <cmp> const  contribute; other atoms conservatively shrink nothing.
Coverage ComputeCoverage(const std::vector<InteractionTemplate>& templates);

// True iff |value| lies inside the covered region of |param| (an uncovered
// param is treated as fully covered — there is no constraint to violate).
bool Covers(const Coverage& cov, const std::string& param, uint64_t value);

std::string CoverageReport(const Coverage& cov);

}  // namespace dlt

#endif  // SRC_RECORD_COVERAGE_H_
