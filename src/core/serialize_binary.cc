#include "src/core/serialize_binary.h"

#include <atomic>
#include <climits>
#include <cstring>

namespace dlt {

namespace {

// Planted decoder bug for the conformance harness's regression guard
// (SetBinaryValueQuirkForTest). Atomic: packages may be decoded on several
// threads at once.
std::atomic<bool> g_value_quirk{false};

constexpr uint32_t kMagic = 0x544c4442;  // "BDLT"
constexpr uint8_t kVersion = 1;
// Per-template flag byte in the template header. The decoder rejects every
// other bit, so a flag a newer writer sets is never dropped.
constexpr uint8_t kFlagLeavesClean = 0x1;

uint8_t TemplateFlags(const InteractionTemplate& t) {
  return t.leaves_clean_state ? kFlagLeavesClean : 0;
}

void PutVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

void PutString(const std::string& s, std::vector<uint8_t>* out) {
  PutVarint(s.size(), out);
  out->insert(out->end(), s.begin(), s.end());
}

void PutExpr(const ExprRef& e, std::vector<uint8_t>* out) {
  if (e == nullptr) {
    out->push_back(0xff);  // absent marker
    return;
  }
  out->push_back(static_cast<uint8_t>(e->op()));
  switch (e->op()) {
    case ExprOp::kConst:
      PutVarint(e->constant(), out);
      break;
    case ExprOp::kInput:
      PutString(e->input_name(), out);
      break;
    case ExprOp::kNot:
      PutExpr(e->lhs(), out);
      break;
    default:
      PutExpr(e->lhs(), out);
      PutExpr(e->rhs(), out);
      break;
  }
}

void PutConstraint(const Constraint& c, std::vector<uint8_t>* out) {
  PutVarint(c.atoms().size(), out);
  for (const auto& a : c.atoms()) {
    PutExpr(a.lhs, out);
    out->push_back(static_cast<uint8_t>(a.cmp));
    PutExpr(a.rhs, out);
  }
}

void PutEvent(const TemplateEvent& e, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(e.kind));
  PutVarint(e.device, out);
  PutVarint(e.reg_off, out);
  PutExpr(e.addr, out);
  PutString(e.bind, out);
  out->push_back(e.state_changing ? 1 : 0);
  PutConstraint(e.constraint, out);
  PutExpr(e.value, out);
  PutString(e.buffer, out);
  PutExpr(e.buf_offset, out);
  PutVarint(static_cast<uint64_t>(e.irq_line + 1), out);
  PutVarint(e.mask, out);
  PutVarint(e.want, out);
  out->push_back(static_cast<uint8_t>(e.poll_cmp));
  PutVarint(e.timeout_us, out);
  PutVarint(e.interval_us, out);
  PutVarint(e.recorded_iters, out);
  PutString(e.file, out);
  PutVarint(static_cast<uint64_t>(e.line), out);
  PutVarint(e.body.size(), out);
  for (const auto& child : e.body) {
    PutEvent(child, out);
  }
}

class Cursor {
 public:
  Cursor(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  Result<uint64_t> Varint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= len_ || shift > 63) {
        return Status::kCorrupt;
      }
      uint8_t b = data_[pos_++];
      if (shift == 63 && (b & 0x7e) != 0) {
        return Status::kCorrupt;  // wider than 64 bits
      }
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) {
        return v;
      }
      shift += 7;
    }
  }

  // A varint for a field narrower than 64 bits. The encoder never writes more
  // than |max|, so a larger value is a forged payload, not one to truncate.
  Result<uint64_t> VarintAtMost(uint64_t max) {
    DLT_ASSIGN_OR_RETURN(uint64_t v, Varint());
    if (v > max) {
      return Status::kCorrupt;
    }
    return v;
  }

  Result<uint8_t> Byte() {
    if (pos_ >= len_) {
      return Status::kCorrupt;
    }
    return data_[pos_++];
  }

  Result<std::string> String() {
    DLT_ASSIGN_OR_RETURN(uint64_t n, Varint());
    if (n > len_ - pos_) {
      return Status::kCorrupt;
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  Result<ExprRef> ExprTree(int depth = 0) {
    if (depth > 64) {
      return Status::kCorrupt;
    }
    DLT_ASSIGN_OR_RETURN(uint8_t tag, Byte());
    if (tag == 0xff) {
      return ExprRef(nullptr);
    }
    if (tag > static_cast<uint8_t>(ExprOp::kNot)) {
      return Status::kCorrupt;
    }
    ExprOp op = static_cast<ExprOp>(tag);
    switch (op) {
      case ExprOp::kConst: {
        DLT_ASSIGN_OR_RETURN(uint64_t v, Varint());
        return Expr::Const(v);
      }
      case ExprOp::kInput: {
        DLT_ASSIGN_OR_RETURN(std::string name, String());
        return Expr::Input(std::move(name));
      }
      case ExprOp::kNot: {
        DLT_ASSIGN_OR_RETURN(ExprRef inner, ExprTree(depth + 1));
        if (inner == nullptr) {
          return Status::kCorrupt;
        }
        return Expr::Not(std::move(inner));
      }
      default: {
        DLT_ASSIGN_OR_RETURN(ExprRef lhs, ExprTree(depth + 1));
        DLT_ASSIGN_OR_RETURN(ExprRef rhs, ExprTree(depth + 1));
        if (lhs == nullptr || rhs == nullptr) {
          return Status::kCorrupt;
        }
        return Expr::Binary(op, std::move(lhs), std::move(rhs));
      }
    }
  }

  Status Flags(InteractionTemplate* t) {
    DLT_ASSIGN_OR_RETURN(uint8_t flags, Byte());
    if ((flags & ~kFlagLeavesClean) != 0) {
      return Status::kCorrupt;
    }
    t->leaves_clean_state = (flags & kFlagLeavesClean) != 0;
    return Status::kOk;
  }

  Result<Constraint> ConstraintSet() {
    DLT_ASSIGN_OR_RETURN(uint64_t n, Varint());
    Constraint c;
    for (uint64_t i = 0; i < n; ++i) {
      ConstraintAtom a;
      DLT_ASSIGN_OR_RETURN(a.lhs, ExprTree());
      DLT_ASSIGN_OR_RETURN(uint8_t cmp, Byte());
      if (cmp > static_cast<uint8_t>(Cmp::kGe)) {
        return Status::kCorrupt;
      }
      a.cmp = static_cast<Cmp>(cmp);
      DLT_ASSIGN_OR_RETURN(a.rhs, ExprTree());
      if (a.lhs == nullptr || a.rhs == nullptr) {
        return Status::kCorrupt;
      }
      c.AddAtom(std::move(a));
    }
    return c;
  }

  Result<TemplateEvent> Event(int depth = 0) {
    if (depth > 8) {
      return Status::kCorrupt;
    }
    TemplateEvent e;
    DLT_ASSIGN_OR_RETURN(uint8_t kind, Byte());
    if (kind > static_cast<uint8_t>(EventKind::kPollShm)) {
      return Status::kCorrupt;
    }
    e.kind = static_cast<EventKind>(kind);
    DLT_ASSIGN_OR_RETURN(uint64_t dev, VarintAtMost(UINT16_MAX));
    e.device = static_cast<uint16_t>(dev);
    DLT_ASSIGN_OR_RETURN(e.reg_off, Varint());
    DLT_ASSIGN_OR_RETURN(e.addr, ExprTree());
    DLT_ASSIGN_OR_RETURN(e.bind, String());
    DLT_ASSIGN_OR_RETURN(uint8_t sc, Byte());
    e.state_changing = (sc != 0);
    DLT_ASSIGN_OR_RETURN(e.constraint, ConstraintSet());
    DLT_ASSIGN_OR_RETURN(e.value, ExprTree());
    if (e.value != nullptr && e.value->is_const() &&
        g_value_quirk.load(std::memory_order_relaxed)) {
      e.value = Expr::Const(e.value->constant() + 1);
    }
    DLT_ASSIGN_OR_RETURN(e.buffer, String());
    DLT_ASSIGN_OR_RETURN(e.buf_offset, ExprTree());
    DLT_ASSIGN_OR_RETURN(uint64_t irq, VarintAtMost(INT_MAX));
    e.irq_line = static_cast<int>(irq) - 1;
    DLT_ASSIGN_OR_RETURN(uint64_t mask, VarintAtMost(UINT32_MAX));
    e.mask = static_cast<uint32_t>(mask);
    DLT_ASSIGN_OR_RETURN(uint64_t want, VarintAtMost(UINT32_MAX));
    e.want = static_cast<uint32_t>(want);
    DLT_ASSIGN_OR_RETURN(uint8_t pcmp, Byte());
    if (pcmp > static_cast<uint8_t>(Cmp::kGe)) {
      return Status::kCorrupt;
    }
    e.poll_cmp = static_cast<Cmp>(pcmp);
    DLT_ASSIGN_OR_RETURN(e.timeout_us, Varint());
    DLT_ASSIGN_OR_RETURN(e.interval_us, Varint());
    DLT_ASSIGN_OR_RETURN(uint64_t iters, VarintAtMost(UINT32_MAX));
    e.recorded_iters = static_cast<uint32_t>(iters);
    DLT_ASSIGN_OR_RETURN(e.file, String());
    DLT_ASSIGN_OR_RETURN(uint64_t line, VarintAtMost(INT_MAX));
    e.line = static_cast<int>(line);
    DLT_ASSIGN_OR_RETURN(uint64_t nbody, Varint());
    for (uint64_t i = 0; i < nbody; ++i) {
      DLT_ASSIGN_OR_RETURN(TemplateEvent child, Event(depth + 1));
      e.body.push_back(std::move(child));
    }
    return e;
  }

  size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ == len_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

void AppendTemplateBinary(const InteractionTemplate& t, std::vector<uint8_t>* out) {
  PutString(t.name, out);
  PutString(t.entry, out);
  PutVarint(t.primary_device, out);
  out->push_back(TemplateFlags(t));
  PutVarint(t.params.size(), out);
  for (const auto& p : t.params) {
    PutString(p.name, out);
    out->push_back(p.is_buffer ? 1 : 0);
  }
  PutConstraint(t.initial, out);
  PutVarint(t.events.size(), out);
  for (const auto& e : t.events) {
    PutEvent(e, out);
  }
}

}  // namespace

void SetBinaryValueQuirkForTest(bool on) { g_value_quirk.store(on, std::memory_order_relaxed); }

std::vector<uint8_t> TemplatesToBinary(const std::vector<InteractionTemplate>& templates) {
  std::vector<uint8_t> out;
  uint32_t magic = kMagic;
  out.resize(4);
  std::memcpy(out.data(), &magic, 4);
  out.push_back(kVersion);
  PutVarint(templates.size(), &out);
  for (const auto& t : templates) {
    AppendTemplateBinary(t, &out);
  }
  return out;
}

Result<std::vector<InteractionTemplate>> TemplatesFromBinary(const uint8_t* data, size_t len) {
  if (len < 5) {
    return Status::kCorrupt;
  }
  uint32_t magic = 0;
  std::memcpy(&magic, data, 4);
  if (magic != kMagic || data[4] != kVersion) {
    return Status::kCorrupt;
  }
  Cursor cur(data + 5, len - 5);
  DLT_ASSIGN_OR_RETURN(uint64_t count, cur.Varint());
  std::vector<InteractionTemplate> out;
  for (uint64_t i = 0; i < count; ++i) {
    InteractionTemplate t;
    DLT_ASSIGN_OR_RETURN(t.name, cur.String());
    DLT_ASSIGN_OR_RETURN(t.entry, cur.String());
    DLT_ASSIGN_OR_RETURN(uint64_t dev, cur.VarintAtMost(UINT16_MAX));
    t.primary_device = static_cast<uint16_t>(dev);
    DLT_RETURN_IF_ERROR(cur.Flags(&t));
    DLT_ASSIGN_OR_RETURN(uint64_t nparams, cur.Varint());
    for (uint64_t p = 0; p < nparams; ++p) {
      ParamSpec spec;
      DLT_ASSIGN_OR_RETURN(spec.name, cur.String());
      DLT_ASSIGN_OR_RETURN(uint8_t is_buf, cur.Byte());
      spec.is_buffer = (is_buf != 0);
      t.params.push_back(std::move(spec));
    }
    DLT_ASSIGN_OR_RETURN(t.initial, cur.ConstraintSet());
    DLT_ASSIGN_OR_RETURN(uint64_t nevents, cur.Varint());
    for (uint64_t e = 0; e < nevents; ++e) {
      DLT_ASSIGN_OR_RETURN(TemplateEvent ev, cur.Event());
      t.events.push_back(std::move(ev));
    }
    out.push_back(std::move(t));
  }
  if (!cur.AtEnd()) {
    return Status::kCorrupt;
  }
  return out;
}

}  // namespace dlt
