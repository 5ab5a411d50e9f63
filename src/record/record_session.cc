#include "src/record/record_session.h"

#include <algorithm>
#include <optional>
#include <set>

#include "src/record/template_builder.h"
#include "src/soc/log.h"

namespace dlt {

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

ConstraintAtom Negated(const ConstraintAtom& a) {
  return ConstraintAtom{a.lhs, NegateCmp(a.cmp), a.rhs};
}

RecordSession::RecordSession(DriverIo* base, std::string entry, std::string template_name,
                             uint16_t primary_device)
    : base_(base) {
  raw_.entry = std::move(entry);
  raw_.name = std::move(template_name);
  raw_.primary_device = primary_device;
}

RecordSession::~RecordSession() { LandCopy(); }

void RecordSession::LandCopy() {
  if (pending_copy_.has_value()) {
    pending_copy_->bytes.WriteTo(pending_copy_->dst);
    pending_copy_.reset();
  }
}

void RecordSession::LandCopyOver(const uint8_t* p, size_t n) {
  if (pending_copy_.has_value() && n > 0 && p < pending_copy_->dst + pending_copy_->bytes.n &&
      pending_copy_->dst < p + n) {
    LandCopy();
  }
}

std::string RecordSession::NewBind(const char* prefix) {
  int* counter = nullptr;
  if (prefix[0] == 'd' && prefix[1] == 'i') {
    counter = &din_count_;
  } else if (prefix[0] == 'd') {
    counter = &dma_count_;
  } else if (prefix[0] == 'r') {
    counter = &rand_count_;
  } else {
    counter = &ts_count_;
  }
  return std::string(prefix) + std::to_string((*counter)++);
}

void RecordSession::Emit(TemplateEvent e) {
  if (!e.bind.empty()) {
    bind_event_[e.bind] = raw_.events.size();
  }
  raw_.events.push_back(std::move(e));
}

std::string RecordSession::BufferOf(const uint8_t* ptr, size_t len) const {
  for (const auto& b : buffers_) {
    if (ptr >= b.base && ptr + len <= b.base + b.len) {
      return b.name;
    }
  }
  return "";
}

TValue RecordSession::ScalarParam(const std::string& name, uint64_t concrete) {
  raw_.params.push_back(ParamSpec{name, /*is_buffer=*/false});
  return TValue::Input(name, concrete);
}

void RecordSession::BufferParam(const std::string& name, uint8_t* base_ptr, size_t len) {
  raw_.params.push_back(ParamSpec{name, /*is_buffer=*/true});
  buffers_.push_back(BufferReg{name, base_ptr, len});
}

Result<InteractionTemplate> RecordSession::Finish() {
  LandCopy();
  if (failed_) {
    return Status::kBadState;
  }
  return BuildTemplate(std::move(raw_));
}

TValue RecordSession::RegRead32(uint16_t device, uint64_t offset, SourceLoc loc) {
  TValue v = base_->RegRead32(device, offset, loc);
  std::string bind = NewBind("din");
  TemplateEvent e;
  e.kind = EventKind::kRegRead;
  e.device = device;
  e.reg_off = offset;
  e.bind = bind;
  e.file = loc.file;
  e.line = loc.line;
  Emit(std::move(e));
  return TValue::Input(bind, v.value());
}

void RecordSession::RegWrite32(uint16_t device, uint64_t offset, const TValue& value,
                               SourceLoc loc) {
  base_->RegWrite32(device, offset, value, loc);
  TemplateEvent e;
  e.kind = EventKind::kRegWrite;
  e.device = device;
  e.reg_off = offset;
  e.value = value.expr();
  e.file = loc.file;
  e.line = loc.line;
  Emit(std::move(e));
}

TValue RecordSession::ShmRead32(const TValue& addr, SourceLoc loc) {
  TValue v = base_->ShmRead32(addr, loc);
  std::string bind = NewBind("din");
  TemplateEvent e;
  e.kind = EventKind::kShmRead;
  e.addr = addr.expr();
  e.bind = bind;
  e.file = loc.file;
  e.line = loc.line;
  Emit(std::move(e));
  return TValue::Input(bind, v.value());
}

void RecordSession::ShmWrite32(const TValue& addr, const TValue& value, SourceLoc loc) {
  base_->ShmWrite32(addr, value, loc);
  TemplateEvent e;
  e.kind = EventKind::kShmWrite;
  e.addr = addr.expr();
  e.value = value.expr();
  e.file = loc.file;
  e.line = loc.line;
  Emit(std::move(e));
}

Status RecordSession::WaitForIrq(int line, uint64_t timeout_us, SourceLoc loc) {
  Status s = base_->WaitForIrq(line, timeout_us, loc);
  TemplateEvent e;
  e.kind = EventKind::kWaitIrq;
  e.irq_line = line;
  e.timeout_us = timeout_us;
  e.state_changing = true;  // a missing interrupt is always a divergence
  e.file = loc.file;
  e.line = loc.line;
  Emit(std::move(e));
  if (!Ok(s)) {
    DLT_LOG(kWarn) << "record run: wait_for_irq(" << line << ") " << StatusName(s);
    failed_ = true;
  }
  return s;
}

Status RecordSession::PollReg32(uint16_t device, uint64_t offset, uint32_t mask, uint32_t want,
                                bool negate, uint64_t timeout_us, uint64_t interval_us,
                                SourceLoc loc) {
  // Execute the poll against the base io one read at a time so the recorder can
  // observe the iteration count; the lifted meta event replaces the whole loop
  // (paper §4.2, Challenge III).
  uint64_t waited = 0;
  uint32_t iters = 0;
  Status result = Status::kTimeout;
  while (true) {
    TValue v = base_->RegRead32(device, offset, loc);
    ++iters;
    if (CompareValues(negate ? Cmp::kNe : Cmp::kEq, v.value32() & mask, want)) {
      result = Status::kOk;
      break;
    }
    if (waited >= timeout_us) {
      break;
    }
    base_->DelayUs(interval_us, loc);
    waited += interval_us;
  }
  TemplateEvent e;
  e.kind = EventKind::kPollReg;
  e.device = device;
  e.reg_off = offset;
  e.mask = mask;
  e.want = want;
  e.poll_cmp = negate ? Cmp::kNe : Cmp::kEq;
  e.timeout_us = timeout_us;
  e.interval_us = interval_us;
  e.recorded_iters = iters;
  e.state_changing = true;  // poll timeout at replay is a divergence
  e.file = loc.file;
  e.line = loc.line;
  Emit(std::move(e));
  if (!Ok(result)) {
    failed_ = true;
  }
  return result;
}

void RecordSession::DelayUs(uint64_t us, SourceLoc loc) {
  base_->DelayUs(us, loc);
  TemplateEvent e;
  e.kind = EventKind::kDelay;
  e.value = Expr::Const(us);
  e.file = loc.file;
  e.line = loc.line;
  Emit(std::move(e));
}

TValue RecordSession::DmaAlloc(const TValue& size, SourceLoc loc) {
  TValue addr = base_->DmaAlloc(size, loc);
  std::string bind = NewBind("dma");
  TemplateEvent e;
  e.kind = EventKind::kDmaAlloc;
  e.bind = bind;
  e.value = size.expr();
  // The recorder mandates a fixed number of DMA allocations per template so the
  // descriptor topology can be reconstructed faithfully (paper Fig. 4).
  e.state_changing = true;
  e.file = loc.file;
  e.line = loc.line;
  Emit(std::move(e));
  return TValue::Input(bind, addr.value());
}

void RecordSession::DmaReleaseAll(SourceLoc loc) {
  // Allocation lifetime is the whole template; the replayer releases at the end
  // of each execution, so no event is emitted.
  LandCopy();
  base_->DmaReleaseAll(loc);
}

TValue RecordSession::GetRandomU32(SourceLoc loc) {
  TValue v = base_->GetRandomU32(loc);
  std::string bind = NewBind("rand");
  TemplateEvent e;
  e.kind = EventKind::kGetRandBytes;
  e.bind = bind;
  e.value = Expr::Const(4);
  e.file = loc.file;
  e.line = loc.line;
  Emit(std::move(e));
  return TValue::Input(bind, v.value());
}

TValue RecordSession::GetTimestampUs(SourceLoc loc) {
  TValue v = base_->GetTimestampUs(loc);
  std::string bind = NewBind("ts");
  TemplateEvent e;
  e.kind = EventKind::kGetTimestamp;
  e.bind = bind;
  e.value = Expr::Const(8);
  e.file = loc.file;
  e.line = loc.line;
  Emit(std::move(e));
  return TValue::Input(bind, v.value());
}

void RecordSession::CopyToDma(const TValue& dst, const uint8_t* src_base, const TValue& src_off,
                              const TValue& len, SourceLoc loc) {
  LandCopyOver(src_base + src_off.value(), len.value());
  base_->CopyToDma(dst, src_base, src_off, len, loc);
  std::string buffer = BufferOf(src_base + src_off.value(), len.value());
  TemplateEvent e;
  e.kind = EventKind::kCopyToDma;
  e.addr = dst.expr();
  e.buffer = buffer;
  e.buf_offset = src_off.expr();
  e.value = len.expr();
  e.file = loc.file;
  e.line = loc.line;
  if (buffer.empty()) {
    DLT_LOG(kWarn) << "record: CopyToDma from unregistered buffer";
    failed_ = true;
  }
  Emit(std::move(e));
}

void RecordSession::CopyFromDma(uint8_t* dst_base, const TValue& dst_off, const TValue& src,
                                const TValue& len, SourceLoc loc) {
  uint8_t* dst = dst_base + dst_off.value();
  const size_t n = len.value();
  const bool covers = pending_copy_.has_value() && dst <= pending_copy_->dst &&
                      pending_copy_->dst + pending_copy_->bytes.n <= dst + n;
  if (!covers) {
    LandCopyOver(dst, n);
  }
  Result<AddressSpace::FillBytes> later =
      base_->CopyFromDmaOrDefer(dst_base, dst_off, src, len, loc);
  if (later.ok()) {
    if (covers) {
      pending_copy_.reset();  // this copy overwrites all of it
    }
    if (later->gen) {
      LandCopy();  // one slot: a disjoint pending copy lands first
      pending_copy_ = PendingCopy{dst, std::move(*later)};
    }
  }
  std::string buffer = BufferOf(dst, n);
  TemplateEvent e;
  e.kind = EventKind::kCopyFromDma;
  e.addr = src.expr();
  e.buffer = buffer;
  e.buf_offset = dst_off.expr();
  e.value = len.expr();
  e.file = loc.file;
  e.line = loc.line;
  if (buffer.empty()) {
    DLT_LOG(kWarn) << "record: CopyFromDma into unregistered buffer";
    failed_ = true;
  }
  Emit(std::move(e));
}

void RecordSession::PioIn(uint16_t device, uint64_t offset, uint8_t* dst_base,
                          const TValue& dst_off, const TValue& len, SourceLoc loc) {
  LandCopyOver(dst_base + dst_off.value(), len.value());
  base_->PioIn(device, offset, dst_base, dst_off, len, loc);
  std::string buffer = BufferOf(dst_base + dst_off.value(), len.value());
  TemplateEvent e;
  e.kind = EventKind::kPioIn;
  e.device = device;
  e.reg_off = offset;
  e.buffer = buffer;
  e.buf_offset = dst_off.expr();
  e.value = len.expr();
  e.file = loc.file;
  e.line = loc.line;
  if (buffer.empty()) {
    failed_ = true;
  }
  Emit(std::move(e));
}

void RecordSession::PioOut(uint16_t device, uint64_t offset, const uint8_t* src_base,
                           const TValue& src_off, const TValue& len, SourceLoc loc) {
  LandCopyOver(src_base + src_off.value(), len.value());
  base_->PioOut(device, offset, src_base, src_off, len, loc);
  std::string buffer = BufferOf(src_base + src_off.value(), len.value());
  TemplateEvent e;
  e.kind = EventKind::kPioOut;
  e.device = device;
  e.reg_off = offset;
  e.buffer = buffer;
  e.buf_offset = src_off.expr();
  e.value = len.expr();
  e.file = loc.file;
  e.line = loc.line;
  if (buffer.empty()) {
    failed_ = true;
  }
  Emit(std::move(e));
}

bool RecordSession::Branch(const TValue& lhs, Cmp cmp, const TValue& rhs, SourceLoc loc) {
  bool truth = base_->Branch(lhs, cmp, rhs, loc);
  if (lhs.tainted() || rhs.tainted()) {
    ConstraintAtom atom{lhs.expr(), cmp, rhs.expr()};
    AttachPathCond(truth ? std::move(atom) : Negated(atom));
  }
  return truth;
}

void RecordSession::AttachPathCond(ConstraintAtom atom) {
  std::set<std::string> syms;
  atom.lhs->CollectInputs(&syms);
  atom.rhs->CollectInputs(&syms);
  std::optional<size_t> target;
  for (const std::string& s : syms) {
    if (std::any_of(raw_.params.begin(), raw_.params.end(),
                    [&](const ParamSpec& p) { return p.name == s; })) {
      continue;
    }
    auto it = bind_event_.find(s);
    if (it == bind_event_.end()) {
      DLT_LOG(kWarn) << "path condition references unbound symbol " << s;
      failed_ = true;
      return;
    }
    target = std::max(target.value_or(0), it->second);
  }
  if (!target.has_value()) {
    raw_.initial.AddAtom(std::move(atom));
    return;
  }
  TemplateEvent& ev = raw_.events[*target];
  ev.constraint.AddAtom(std::move(atom));
  ev.state_changing = true;
}

uint64_t RecordSession::NowUs() { return base_->NowUs(); }

}  // namespace dlt
