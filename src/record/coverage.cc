#include "src/record/coverage.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace dlt {

namespace {

constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

// Per-template, per-param interval implied by the conjunction of simple atoms.
struct Interval {
  uint64_t lo = 0;
  uint64_t hi = kMax;
  bool empty = false;
  bool constrained = false;
};

void Tighten(Interval* iv, Cmp cmp, uint64_t c) {
  iv->constrained = true;
  switch (cmp) {
    case Cmp::kEq:
      iv->lo = std::max(iv->lo, c);
      iv->hi = std::min(iv->hi, c);
      break;
    case Cmp::kLe:
      iv->hi = std::min(iv->hi, c);
      break;
    case Cmp::kLt:
      iv->hi = std::min(iv->hi, c == 0 ? 0 : c - 1);
      if (c == 0) {
        iv->empty = true;
      }
      break;
    case Cmp::kGe:
      iv->lo = std::max(iv->lo, c);
      break;
    case Cmp::kGt:
      iv->lo = std::max(iv->lo, c == kMax ? kMax : c + 1);
      if (c == kMax) {
        iv->empty = true;
      }
      break;
    case Cmp::kNe:
      // A punctured interval is not representable; ignore (conservative-wide).
      break;
  }
  if (iv->lo > iv->hi) {
    iv->empty = true;
  }
}

void MergeRanges(std::vector<CoverageRange>* ranges) {
  std::sort(ranges->begin(), ranges->end(),
            [](const CoverageRange& a, const CoverageRange& b) { return a.lo < b.lo; });
  std::vector<CoverageRange> merged;
  for (const auto& r : *ranges) {
    if (!merged.empty() && (r.lo <= merged.back().hi ||
                            (merged.back().hi != kMax && r.lo == merged.back().hi + 1))) {
      merged.back().hi = std::max(merged.back().hi, r.hi);
    } else {
      merged.push_back(r);
    }
  }
  *ranges = std::move(merged);
}

}  // namespace

// Extracts an affine form  a*param + b  from |e| when possible. Arithmetic is
// carried in signed __int128 so subtraction chains like (p*512 - 0x3000) work.
bool ExtractAffine(const ExprRef& e, const std::string& param, __int128* a, __int128* b) {
  if (e == nullptr) {
    return false;
  }
  switch (e->op()) {
    case ExprOp::kConst:
      *a = 0;
      *b = static_cast<__int128>(e->constant());
      return true;
    case ExprOp::kInput:
      if (e->input_name() != param) {
        return false;
      }
      *a = 1;
      *b = 0;
      return true;
    case ExprOp::kAdd:
    case ExprOp::kSub: {
      __int128 a1, b1, a2, b2;
      if (!ExtractAffine(e->lhs(), param, &a1, &b1) ||
          !ExtractAffine(e->rhs(), param, &a2, &b2)) {
        return false;
      }
      if (e->op() == ExprOp::kAdd) {
        *a = a1 + a2;
        *b = b1 + b2;
      } else {
        *a = a1 - a2;
        *b = b1 - b2;
      }
      return true;
    }
    case ExprOp::kMul: {
      __int128 a1, b1, a2, b2;
      if (!ExtractAffine(e->lhs(), param, &a1, &b1) ||
          !ExtractAffine(e->rhs(), param, &a2, &b2)) {
        return false;
      }
      if (a1 != 0 && a2 != 0) {
        return false;  // quadratic
      }
      *a = a1 * b2 + a2 * b1;
      *b = b1 * b2;
      return true;
    }
    case ExprOp::kShl: {
      __int128 a1, b1, a2, b2;
      if (!ExtractAffine(e->lhs(), param, &a1, &b1) ||
          !ExtractAffine(e->rhs(), param, &a2, &b2) || a2 != 0 || b2 > 63) {
        return false;
      }
      __int128 f = static_cast<__int128>(1) << static_cast<int>(b2);
      *a = a1 * f;
      *b = b1 * f;
      return true;
    }
    default:
      return false;
  }
}

// Tightens |iv| with the constraint  a*p + b  <cmp>  c.
void TightenAffine(Interval* iv, __int128 a, __int128 b, Cmp cmp, __int128 c) {
  if (a < 0) {
    a = -a;
    b = -b;
    c = -c;
    switch (cmp) {
      case Cmp::kLt: cmp = Cmp::kGt; break;
      case Cmp::kLe: cmp = Cmp::kGe; break;
      case Cmp::kGt: cmp = Cmp::kLt; break;
      case Cmp::kGe: cmp = Cmp::kLe; break;
      default: break;
    }
  }
  if (a == 0) {
    return;
  }
  __int128 rhs = c - b;
  auto floor_div = [](__int128 x, __int128 y) {
    __int128 q = x / y;
    if ((x % y != 0) && ((x < 0) != (y < 0))) {
      --q;
    }
    return q;
  };
  auto clamp_u64 = [](__int128 v) -> uint64_t {
    if (v < 0) {
      return 0;
    }
    if (v > static_cast<__int128>(kMax)) {
      return kMax;
    }
    return static_cast<uint64_t>(v);
  };
  iv->constrained = true;
  switch (cmp) {
    case Cmp::kEq:
      if (rhs % a != 0 || rhs < 0) {
        iv->empty = true;
      } else {
        Tighten(iv, Cmp::kEq, clamp_u64(rhs / a));
      }
      break;
    case Cmp::kLe:
      if (rhs < 0) {
        iv->empty = true;
      } else {
        Tighten(iv, Cmp::kLe, clamp_u64(floor_div(rhs, a)));
      }
      break;
    case Cmp::kLt:
      if (rhs <= 0) {
        iv->empty = true;
      } else {
        Tighten(iv, Cmp::kLe, clamp_u64(floor_div(rhs - 1, a)));
      }
      break;
    case Cmp::kGe:
      Tighten(iv, Cmp::kGe, clamp_u64(floor_div(rhs + a - 1, a)));
      break;
    case Cmp::kGt:
      Tighten(iv, Cmp::kGe, clamp_u64(floor_div(rhs, a) + 1));
      break;
    case Cmp::kNe:
      break;  // punctured interval: not representable, kept conservative-wide
  }
}

Coverage ComputeCoverage(const std::vector<InteractionTemplate>& templates) {
  Coverage cov;
  for (const auto& t : templates) {
    std::map<std::string, Interval> per_param;
    for (const auto& p : t.params) {
      if (!p.is_buffer) {
        per_param[p.name] = Interval{};
      }
    }
    for (const auto& atom : t.initial.atoms()) {
      std::set<std::string> syms;
      atom.lhs->CollectInputs(&syms);
      atom.rhs->CollectInputs(&syms);
      if (syms.size() != 1) {
        continue;
      }
      auto it = per_param.find(*syms.begin());
      if (it == per_param.end()) {
        continue;
      }
      // Solve  lhs cmp rhs  as  (a_l - a_r)*p + b_l  cmp  b_r.
      __int128 al, bl, ar, br;
      if (!ExtractAffine(atom.lhs, it->first, &al, &bl) ||
          !ExtractAffine(atom.rhs, it->first, &ar, &br)) {
        continue;  // non-affine (e.g. alignment masks): not interval-representable
      }
      TightenAffine(&it->second, al - ar, bl, atom.cmp, br);
    }
    for (const auto& [name, iv] : per_param) {
      ParamCoverage& pc = cov[name];
      if (iv.empty) {
        continue;
      }
      if (!iv.constrained) {
        pc.unconstrained = true;
        continue;
      }
      pc.ranges.push_back(CoverageRange{iv.lo, iv.hi});
    }
  }
  for (auto& [name, pc] : cov) {
    MergeRanges(&pc.ranges);
  }
  return cov;
}

bool Covers(const Coverage& cov, const std::string& param, uint64_t value) {
  auto it = cov.find(param);
  if (it == cov.end() || it->second.unconstrained) {
    return true;
  }
  for (const auto& r : it->second.ranges) {
    if (value >= r.lo && value <= r.hi) {
      return true;
    }
  }
  return false;
}

std::string CoverageReport(const Coverage& cov) {
  std::ostringstream os;
  bool first_param = true;
  for (const auto& [name, pc] : cov) {
    if (!first_param) {
      os << ", ";
    }
    first_param = false;
    os << name << " in ";
    if (pc.unconstrained) {
      os << "[any]";
      continue;
    }
    if (pc.ranges.empty()) {
      os << "{}";
      continue;
    }
    for (size_t i = 0; i < pc.ranges.size(); ++i) {
      if (i > 0) {
        os << " U ";
      }
      const auto& r = pc.ranges[i];
      if (r.lo == r.hi) {
        os << "{0x" << std::hex << r.lo << std::dec << "}";
      } else if (r.hi == kMax) {
        os << "[0x" << std::hex << r.lo << std::dec << ", inf)";
      } else {
        os << "[0x" << std::hex << r.lo << ", 0x" << r.hi << std::dec << "]";
      }
    }
  }
  return os.str();
}

}  // namespace dlt
