#include "src/core/serialize_binary.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>

namespace dlt {

namespace {

// Planted decoder bug for the conformance harness's regression guard
// (SetBinaryValueQuirkForTest). Atomic: fleet shards hydrate concurrently.
std::atomic<bool> g_value_quirk{false};

constexpr uint32_t kMagic = 0x544c4442;  // "BDLT"
constexpr uint8_t kVersion = 1;
constexpr uint8_t kVersionV2 = 2;
// v2 fixed header: magic(4) version(1) count(4, LE) dir_len(4, LE).
constexpr size_t kV2HeaderBytes = 13;

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
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) {
        return v;
      }
      shift += 7;
    }
  }

  Result<uint8_t> Byte() {
    if (pos_ >= len_) {
      return Status::kCorrupt;
    }
    return data_[pos_++];
  }

  Result<std::string> String() {
    DLT_ASSIGN_OR_RETURN(uint64_t n, Varint());
    if (pos_ + n > len_) {
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
    DLT_ASSIGN_OR_RETURN(uint64_t dev, Varint());
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
    DLT_ASSIGN_OR_RETURN(uint64_t irq, Varint());
    e.irq_line = static_cast<int>(irq) - 1;
    DLT_ASSIGN_OR_RETURN(uint64_t mask, Varint());
    e.mask = static_cast<uint32_t>(mask);
    DLT_ASSIGN_OR_RETURN(uint64_t want, Varint());
    e.want = static_cast<uint32_t>(want);
    DLT_ASSIGN_OR_RETURN(uint8_t pcmp, Byte());
    if (pcmp > static_cast<uint8_t>(Cmp::kGe)) {
      return Status::kCorrupt;
    }
    e.poll_cmp = static_cast<Cmp>(pcmp);
    DLT_ASSIGN_OR_RETURN(e.timeout_us, Varint());
    DLT_ASSIGN_OR_RETURN(e.interval_us, Varint());
    DLT_ASSIGN_OR_RETURN(uint64_t iters, Varint());
    e.recorded_iters = static_cast<uint32_t>(iters);
    DLT_ASSIGN_OR_RETURN(e.file, String());
    DLT_ASSIGN_OR_RETURN(uint64_t line, Varint());
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

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Mirrors TemplateStore's admission-time device walk so a v2 directory can
// answer PackageDevices without touching event bodies.
void CollectEventDevices(const std::vector<TemplateEvent>& events, std::set<uint16_t>* out) {
  for (const TemplateEvent& e : events) {
    switch (e.kind) {
      case EventKind::kRegRead:
      case EventKind::kRegWrite:
      case EventKind::kPollReg:
      case EventKind::kPioIn:
      case EventKind::kPioOut:
        out->insert(e.device);
        break;
      default:
        break;
    }
    if (!e.body.empty()) {
      CollectEventDevices(e.body, out);
    }
  }
}

// Directory content for one template: everything selection and admission need,
// without the event bodies. Shared by the v2 writer and PackageView::Parse.
void PutDirectoryEntry(const InteractionTemplate& t, const std::vector<uint16_t>& devices,
                       uint64_t body_off, uint64_t body_len, std::vector<uint8_t>* out) {
  PutString(t.name, out);
  PutString(t.entry, out);
  PutVarint(t.primary_device, out);
  PutVarint(t.params.size(), out);
  for (const auto& p : t.params) {
    PutString(p.name, out);
    out->push_back(p.is_buffer ? 1 : 0);
  }
  PutConstraint(t.initial, out);
  PutVarint(devices.size(), out);
  for (uint16_t d : devices) {
    PutVarint(d, out);
  }
  PutVarint(body_off, out);
  PutVarint(body_len, out);
}

}  // namespace

void AppendTemplateBinary(const InteractionTemplate& t, std::vector<uint8_t>* out) {
  PutString(t.name, out);
  PutString(t.entry, out);
  PutVarint(t.primary_device, out);
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

Sha256::Digest TemplateContentHash(const InteractionTemplate& t) {
  std::vector<uint8_t> bytes;
  AppendTemplateBinary(t, &bytes);
  return Sha256::Hash(bytes.data(), bytes.size());
}

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

std::vector<uint8_t> TemplatesToBinaryV2(const std::vector<InteractionTemplate>& templates) {
  // Body section first: each template's events as one varint-prefixed blob,
  // so the directory can carry final offsets.
  std::vector<uint8_t> body;
  std::vector<std::pair<uint64_t, uint64_t>> ranges;  // (off, len) per template
  ranges.reserve(templates.size());
  for (const auto& t : templates) {
    uint64_t off = body.size();
    PutVarint(t.events.size(), &body);
    for (const auto& e : t.events) {
      PutEvent(e, &body);
    }
    ranges.emplace_back(off, body.size() - off);
  }

  std::vector<uint8_t> dir;
  for (size_t i = 0; i < templates.size(); ++i) {
    const InteractionTemplate& t = templates[i];
    std::set<uint16_t> devs;
    devs.insert(t.primary_device);
    CollectEventDevices(t.events, &devs);
    PutDirectoryEntry(t, std::vector<uint16_t>(devs.begin(), devs.end()), ranges[i].first,
                      ranges[i].second, &dir);
  }

  std::vector<uint8_t> out;
  out.reserve(kV2HeaderBytes + dir.size() + body.size());
  uint32_t magic = kMagic;
  out.resize(4);
  std::memcpy(out.data(), &magic, 4);
  out.push_back(kVersionV2);
  PutU32(static_cast<uint32_t>(templates.size()), &out);
  PutU32(static_cast<uint32_t>(dir.size()), &out);
  out.insert(out.end(), dir.begin(), dir.end());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

Result<PackageView> PackageView::Parse(const uint8_t* data, size_t len) {
  if (len < kV2HeaderBytes) {
    return Status::kCorrupt;
  }
  uint32_t magic = 0;
  std::memcpy(&magic, data, 4);
  if (magic != kMagic || data[4] != kVersionV2) {
    return Status::kCorrupt;
  }
  uint32_t count = GetU32(data + 5);
  uint32_t dir_len = GetU32(data + 9);
  if (kV2HeaderBytes + static_cast<size_t>(dir_len) > len) {
    return Status::kCorrupt;
  }
  // Every directory entry occupies at least one byte, so a count beyond
  // dir_len is provably corrupt — and must be rejected BEFORE reserve(count)
  // turns a flipped header byte into a multi-gigabyte allocation.
  if (count > dir_len) {
    return Status::kCorrupt;
  }
  PackageView view;
  view.body_ = data + kV2HeaderBytes + dir_len;
  view.body_len_ = len - kV2HeaderBytes - dir_len;
  view.total_bytes_ = len;

  Cursor cur(data + kV2HeaderBytes, dir_len);
  view.entries_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Entry ent;
    InteractionTemplate& t = ent.header;
    DLT_ASSIGN_OR_RETURN(t.name, cur.String());
    DLT_ASSIGN_OR_RETURN(t.entry, cur.String());
    DLT_ASSIGN_OR_RETURN(uint64_t dev, cur.Varint());
    t.primary_device = static_cast<uint16_t>(dev);
    DLT_ASSIGN_OR_RETURN(uint64_t nparams, cur.Varint());
    for (uint64_t p = 0; p < nparams; ++p) {
      ParamSpec spec;
      DLT_ASSIGN_OR_RETURN(spec.name, cur.String());
      DLT_ASSIGN_OR_RETURN(uint8_t is_buf, cur.Byte());
      spec.is_buffer = (is_buf != 0);
      t.params.push_back(std::move(spec));
    }
    DLT_ASSIGN_OR_RETURN(t.initial, cur.ConstraintSet());
    DLT_ASSIGN_OR_RETURN(uint64_t ndevs, cur.Varint());
    for (uint64_t d = 0; d < ndevs; ++d) {
      DLT_ASSIGN_OR_RETURN(uint64_t dv, cur.Varint());
      ent.devices.push_back(static_cast<uint16_t>(dv));
    }
    if (!std::is_sorted(ent.devices.begin(), ent.devices.end())) {
      return Status::kCorrupt;
    }
    DLT_ASSIGN_OR_RETURN(uint64_t body_off, cur.Varint());
    DLT_ASSIGN_OR_RETURN(uint64_t body_len, cur.Varint());
    if (body_off > view.body_len_ || body_len > view.body_len_ - body_off) {
      return Status::kCorrupt;
    }
    ent.body_off = body_off;
    ent.body_len = body_len;
    view.entries_.push_back(std::move(ent));
  }
  if (!cur.AtEnd()) {
    return Status::kCorrupt;
  }
  view.directory_bytes_ = kV2HeaderBytes + dir_len;
  return view;
}

Status PackageView::HydrateEvents(size_t i, InteractionTemplate* tpl) const {
  if (i >= entries_.size()) {
    return Status::kInvalidArg;
  }
  const Entry& ent = entries_[i];
  Cursor cur(body_ + ent.body_off, ent.body_len);
  DLT_ASSIGN_OR_RETURN(uint64_t nevents, cur.Varint());
  std::vector<TemplateEvent> events;
  for (uint64_t e = 0; e < nevents; ++e) {
    DLT_ASSIGN_OR_RETURN(TemplateEvent ev, cur.Event());
    events.push_back(std::move(ev));
  }
  if (!cur.AtEnd()) {
    return Status::kCorrupt;
  }
  tpl->events = std::move(events);
  return Status::kOk;
}

Result<std::vector<InteractionTemplate>> TemplatesFromBinary(const uint8_t* data, size_t len) {
  if (len < 5) {
    return Status::kCorrupt;
  }
  uint32_t magic = 0;
  std::memcpy(&magic, data, 4);
  if (magic != kMagic) {
    return Status::kCorrupt;
  }
  if (data[4] == kVersionV2) {
    // Eager v2 decode: directory + every body, for callers that want the
    // whole package in memory (lazy loads go through PackageView directly).
    DLT_ASSIGN_OR_RETURN(PackageView view, PackageView::Parse(data, len));
    std::vector<InteractionTemplate> out;
    out.reserve(view.size());
    for (size_t i = 0; i < view.size(); ++i) {
      InteractionTemplate t = view.header(i);
      DLT_RETURN_IF_ERROR(view.HydrateEvents(i, &t));
      out.push_back(std::move(t));
    }
    return out;
  }
  if (data[4] != kVersion) {
    return Status::kCorrupt;
  }
  Cursor cur(data + 5, len - 5);
  DLT_ASSIGN_OR_RETURN(uint64_t count, cur.Varint());
  std::vector<InteractionTemplate> out;
  for (uint64_t i = 0; i < count; ++i) {
    InteractionTemplate t;
    DLT_ASSIGN_OR_RETURN(t.name, cur.String());
    DLT_ASSIGN_OR_RETURN(t.entry, cur.String());
    DLT_ASSIGN_OR_RETURN(uint64_t dev, cur.Varint());
    t.primary_device = static_cast<uint16_t>(dev);
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
