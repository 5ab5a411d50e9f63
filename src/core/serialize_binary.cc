#include "src/core/serialize_binary.h"

#include <cstring>
#include <limits>
#include <set>
#include <tuple>

namespace dlt {

namespace {

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

  // A varint into |*field|, narrower than 64 bits. The encoder never writes
  // more than the field holds, so a larger value is a forged payload, not one
  // to truncate.
  template <typename T>
  Status VarintInto(T* field) {
    DLT_ASSIGN_OR_RETURN(uint64_t v, Varint());
    if (v > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
      return Status::kCorrupt;
    }
    *field = static_cast<T>(v);
    return Status::kOk;
  }

  // A byte holding an enumerator no larger than |last|.
  template <typename E>
  Result<E> EnumByte(E last) {
    DLT_ASSIGN_OR_RETURN(uint8_t b, Byte());
    if (b > static_cast<uint8_t>(last)) {
      return Status::kCorrupt;
    }
    return static_cast<E>(b);
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
        return Shared(Expr::Const(v));
      }
      case ExprOp::kInput: {
        DLT_ASSIGN_OR_RETURN(std::string name, String());
        return Shared(Expr::Input(std::move(name)));
      }
      case ExprOp::kNot: {
        DLT_ASSIGN_OR_RETURN(ExprRef inner, ExprTree(depth + 1));
        if (inner == nullptr) {
          return Status::kCorrupt;
        }
        return Shared(Expr::Not(std::move(inner)));
      }
      default: {
        DLT_ASSIGN_OR_RETURN(ExprRef lhs, ExprTree(depth + 1));
        DLT_ASSIGN_OR_RETURN(ExprRef rhs, ExprTree(depth + 1));
        if (lhs == nullptr || rhs == nullptr) {
          return Status::kCorrupt;
        }
        return Shared(Expr::Binary(op, std::move(lhs), std::move(rhs)));
      }
    }
  }

  // The payload's node equal to |e|, which becomes it if none was decoded
  // yet. Expressions are immutable and every node's children are already
  // shared, so two nodes are equal when their op, leaf value and child
  // pointers are: a package decodes to one node per distinct sub-expression.
  ExprRef Shared(ExprRef e) { return *exprs_.insert(std::move(e)).first; }

  Status Flags(InteractionTemplate* t) {
    DLT_ASSIGN_OR_RETURN(uint8_t flags, Byte());
    if ((flags & ~kBinaryFlagLeavesClean) != 0) {
      return Status::kCorrupt;
    }
    t->leaves_clean_state = (flags & kBinaryFlagLeavesClean) != 0;
    return Status::kOk;
  }

  Result<Constraint> ConstraintSet() {
    DLT_ASSIGN_OR_RETURN(uint64_t n, Varint());
    Constraint c;
    for (uint64_t i = 0; i < n; ++i) {
      ConstraintAtom a;
      DLT_ASSIGN_OR_RETURN(a.lhs, ExprTree());
      DLT_ASSIGN_OR_RETURN(a.cmp, EnumByte(Cmp::kGe));
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
    DLT_ASSIGN_OR_RETURN(e.kind, EnumByte(EventKind::kPollShm));
    DLT_RETURN_IF_ERROR(VarintInto(&e.device));
    DLT_ASSIGN_OR_RETURN(e.reg_off, Varint());
    DLT_ASSIGN_OR_RETURN(e.addr, ExprTree());
    DLT_ASSIGN_OR_RETURN(e.bind, String());
    DLT_ASSIGN_OR_RETURN(uint8_t sc, Byte());
    e.state_changing = (sc != 0);
    DLT_ASSIGN_OR_RETURN(e.constraint, ConstraintSet());
    DLT_ASSIGN_OR_RETURN(e.value, ExprTree());
    DLT_ASSIGN_OR_RETURN(e.buffer, String());
    DLT_ASSIGN_OR_RETURN(e.buf_offset, ExprTree());
    DLT_RETURN_IF_ERROR(VarintInto(&e.irq_line));
    --e.irq_line;  // stored as line + 1, so "none" (-1) is 0
    DLT_RETURN_IF_ERROR(VarintInto(&e.mask));
    DLT_RETURN_IF_ERROR(VarintInto(&e.want));
    DLT_ASSIGN_OR_RETURN(e.poll_cmp, EnumByte(Cmp::kGe));
    DLT_ASSIGN_OR_RETURN(e.timeout_us, Varint());
    DLT_ASSIGN_OR_RETURN(e.interval_us, Varint());
    DLT_RETURN_IF_ERROR(VarintInto(&e.recorded_iters));
    DLT_ASSIGN_OR_RETURN(e.file, String());
    DLT_RETURN_IF_ERROR(VarintInto(&e.line));
    DLT_ASSIGN_OR_RETURN(uint64_t nbody, Varint());
    for (uint64_t i = 0; i < nbody; ++i) {
      DLT_ASSIGN_OR_RETURN(TemplateEvent child, Event(depth + 1));
      e.body.push_back(std::move(child));
    }
    return e;
  }

  bool AtEnd() const { return pos_ == len_; }

 private:
  struct NodeLess {
    bool operator()(const ExprRef& a, const ExprRef& b) const {
      return std::forward_as_tuple(a->op(), a->constant(), a->input_name(), a->lhs(), a->rhs()) <
             std::forward_as_tuple(b->op(), b->constant(), b->input_name(), b->lhs(), b->rhs());
    }
  };

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  std::set<ExprRef, NodeLess> exprs_;
};

}  // namespace

Result<std::vector<InteractionTemplate>> TemplatesFromBinary(const uint8_t* data, size_t len) {
  if (len < 5) {
    return Status::kCorrupt;
  }
  uint32_t magic = 0;
  std::memcpy(&magic, data, 4);
  if (magic != kBinaryMagic || data[4] != kBinaryVersion) {
    return Status::kCorrupt;
  }
  Cursor cur(data + 5, len - 5);
  DLT_ASSIGN_OR_RETURN(uint64_t count, cur.Varint());
  std::vector<InteractionTemplate> out;
  for (uint64_t i = 0; i < count; ++i) {
    InteractionTemplate t;
    DLT_ASSIGN_OR_RETURN(t.name, cur.String());
    DLT_ASSIGN_OR_RETURN(t.entry, cur.String());
    DLT_RETURN_IF_ERROR(cur.VarintInto(&t.primary_device));
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
