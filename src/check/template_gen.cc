#include "src/check/template_gen.h"

#include "src/soc/dma_engine.h"
#include "src/soc/machine.h"
#include "src/tee/secure_world.h"

namespace dlt {

namespace {

ExprRef AddrExpr(const std::string& sym, uint64_t off) {
  ExprRef base = Expr::Input(sym);
  return off == 0 ? base : Expr::Binary(ExprOp::kAdd, std::move(base), Expr::Const(off));
}

uint32_t WordAt(const std::vector<uint8_t>& bytes, uint64_t off) {
  return static_cast<uint32_t>(bytes[off]) | static_cast<uint32_t>(bytes[off + 1]) << 8 |
         static_cast<uint32_t>(bytes[off + 2]) << 16 | static_cast<uint32_t>(bytes[off + 3]) << 24;
}

}  // namespace

uint64_t GenRng::Next() {
  // splitmix64.
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TemplateEvent TemplateGen::Event(EventKind kind) {
  TemplateEvent e;
  e.kind = kind;
  e.file = "gen";
  e.line = static_cast<int>(case_.tpl.events.size()) + 1;
  return e;
}

uint64_t TemplateGen::NextOff() {
  uint64_t off = next_off_;
  next_off_ += 4;
  return off;
}

uint64_t TemplateGen::ModelAlloc(uint64_t size) {
  uint64_t addr = (next_alloc_ + 0x3fff) & ~0x3fffull;
  next_alloc_ = addr + size;
  return addr;
}

std::string TemplateGen::NewSym(const char* prefix) {
  return std::string(prefix) + std::to_string(sym_counter_++);
}

void TemplateGen::AddKnown(const std::string& name, uint64_t value) {
  known_[name] = value;
  pool_.push_back(name);
}

uint64_t TemplateGen::ValueOf(const ExprRef& e) const {
  Result<uint64_t> v = e->Eval(known_);
  return v.ok() ? *v : 0;  // unreachable by construction
}

ExprRef TemplateGen::RandomExpr(int depth) {
  if (depth <= 0 || rng_.Chance(30)) {
    if (!pool_.empty() && rng_.Chance(50)) {
      return Expr::Input(pool_[rng_.Range(0, pool_.size() - 1)]);
    }
    return Expr::Const(rng_.Range(0, 0xffff'ffff));
  }
  switch (rng_.Range(0, 8)) {
    case 0:
      return Expr::Binary(ExprOp::kAdd, RandomExpr(depth - 1), RandomExpr(depth - 1));
    case 1:
      return Expr::Binary(ExprOp::kSub, RandomExpr(depth - 1), RandomExpr(depth - 1));
    case 2:
      return Expr::Binary(ExprOp::kMul, RandomExpr(depth - 1), RandomExpr(depth - 1));
    case 3:
      return Expr::Binary(ExprOp::kAnd, RandomExpr(depth - 1), RandomExpr(depth - 1));
    case 4:
      return Expr::Binary(ExprOp::kOr, RandomExpr(depth - 1), RandomExpr(depth - 1));
    case 5:
      return Expr::Binary(ExprOp::kXor, RandomExpr(depth - 1), RandomExpr(depth - 1));
    case 6:
      return Expr::Binary(rng_.Chance(50) ? ExprOp::kShl : ExprOp::kShr, RandomExpr(depth - 1),
                          Expr::Const(rng_.Range(0, 31)));
    case 7:
      return Expr::Binary(rng_.Chance(50) ? ExprOp::kDiv : ExprOp::kMod, RandomExpr(depth - 1),
                          Expr::Const(rng_.Range(1, 255)));
    default:
      return Expr::Not(RandomExpr(depth - 1));
  }
}

Constraint TemplateGen::ReadbackConstraint(const std::string& bind, const ExprRef& value_expr,
                                           uint32_t concrete) {
  Constraint c;
  ExprRef rhs = rng_.Chance(60)
                    ? Expr::Const(concrete)
                    : Expr::Binary(ExprOp::kAnd, value_expr, Expr::Const(0xffff'ffff));
  c.AddAtom(ConstraintAtom{Expr::Input(bind), Cmp::kEq, std::move(rhs)});
  return c;
}

void TemplateGen::WriteRegionWord(Region* r, uint64_t byte_off, const ExprRef& value_expr) {
  uint32_t v = static_cast<uint32_t>(ValueOf(value_expr));
  for (int i = 0; i < 4; ++i) {
    r->bytes[byte_off + static_cast<uint64_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
    r->init[byte_off + static_cast<uint64_t>(i)] = true;
  }
  TemplateEvent e = Event(EventKind::kShmWrite);
  e.addr = AddrExpr(r->sym, byte_off);
  e.value = value_expr;
  Emit(std::move(e));
}

void TemplateGen::CopyRegionToOut(const Region& r, uint64_t src_off, uint64_t len) {
  if (out_cursor_ + len > case_.out_len) {
    return;
  }
  TemplateEvent e = Event(EventKind::kCopyFromDma);
  e.buffer = "out";
  e.buf_offset = Expr::Const(out_cursor_);
  e.value = Expr::Const(len);
  e.addr = AddrExpr(r.sym, src_off);
  Emit(std::move(e));
  for (uint64_t i = 0; i < len; ++i) {
    case_.expected_out[out_cursor_ + i] = r.bytes[src_off + i];
  }
  out_cursor_ += len;
}

// Writes random expressions to fresh registers; readbacks observe the written
// value (no read queue at these offsets, so MmioRead32 returns the register).
void TemplateGen::RegBlock() {
  int n = static_cast<int>(rng_.Range(1, 3));
  for (int i = 0; i < n; ++i) {
    uint64_t off = NextOff();
    ExprRef v = RandomExpr(static_cast<int>(rng_.Range(0, 2)));
    uint32_t cv = static_cast<uint32_t>(ValueOf(v));
    TemplateEvent w = Event(EventKind::kRegWrite);
    w.device = kGenDeviceId;
    w.reg_off = off;
    w.value = v;
    Emit(std::move(w));
    if (rng_.Chance(70)) {
      std::string bind = NewSym("r");
      TemplateEvent rd = Event(EventKind::kRegRead);
      rd.device = kGenDeviceId;
      rd.reg_off = off;
      rd.bind = bind;
      rd.state_changing = true;
      rd.constraint = ReadbackConstraint(bind, v, cv);
      Emit(std::move(rd));
      AddKnown(bind, cv);
    }
  }
}

// Reads answered from a scripted per-offset queue, constrained to the script.
void TemplateGen::ScriptedReadBlock() {
  uint64_t off = NextOff();
  int n = static_cast<int>(rng_.Range(1, 3));
  std::vector<uint32_t>& queue = case_.script.read_queues[off];
  for (int i = 0; i < n; ++i) {
    uint32_t v = static_cast<uint32_t>(rng_.Range(0, 0xffff'ffff));
    queue.push_back(v);
    std::string bind = NewSym("r");
    TemplateEvent rd = Event(EventKind::kRegRead);
    rd.device = kGenDeviceId;
    rd.reg_off = off;
    rd.bind = bind;
    if (rng_.Chance(70)) {
      rd.state_changing = true;
      Constraint c;
      uint64_t form = rng_.Range(0, 4);
      Cmp cmp = form < 3 ? Cmp::kEq : (form == 3 ? Cmp::kLe : Cmp::kGe);
      c.AddAtom(ConstraintAtom{Expr::Input(bind), cmp, Expr::Const(v)});
      rd.constraint = std::move(c);
    }
    Emit(std::move(rd));
    AddKnown(bind, v);
  }
}

// A register poll that fails a scripted number of iterations before the
// scripted success value appears; the optional body runs per failed iteration.
void TemplateGen::PollBlock() {
  uint64_t off = NextOff();
  uint32_t iters = static_cast<uint32_t>(rng_.Range(0, 3));
  uint32_t mask = static_cast<uint32_t>(rng_.Range(0, 0xffff'ffff)) | 1u;
  uint32_t success = static_cast<uint32_t>(rng_.Range(0, 0xffff'ffff));
  uint32_t fail = success ^ 1u;  // differs in a masked bit
  std::vector<uint32_t>& queue = case_.script.read_queues[off];
  for (uint32_t i = 0; i < iters; ++i) {
    queue.push_back(fail);
  }
  queue.push_back(success);

  TemplateEvent p = Event(EventKind::kPollReg);
  p.device = kGenDeviceId;
  p.reg_off = off;
  p.mask = mask;
  p.want = success & mask;
  p.poll_cmp = Cmp::kEq;
  p.interval_us = rng_.Range(1, 4);
  p.timeout_us = 50'000;
  p.recorded_iters = iters;
  if (iters > 0 && rng_.Chance(40)) {
    TemplateEvent body = Event(EventKind::kRegWrite);
    body.device = kGenDeviceId;
    body.reg_off = NextOff();
    body.value = Expr::Const(rng_.Range(0, 0xffff));
    p.body.push_back(std::move(body));
  }
  if (rng_.Chance(50)) {
    std::string bind = NewSym("p");
    p.bind = bind;
    AddKnown(bind, success);
  }
  Emit(std::move(p));
}

// A dma_alloc plus a run of consecutive +4 word writes (a descriptor-table
// fill), optionally read back under constraints, shm-polled, and copied out
// to the trustlet buffer.
void TemplateGen::ShmRunBlock() {
  uint64_t words = rng_.Range(2, 6);
  std::string sym = NewSym("dma");
  TemplateEvent alloc = Event(EventKind::kDmaAlloc);
  alloc.bind = sym;
  alloc.value = Expr::Const(words * 4);
  Emit(std::move(alloc));
  known_[sym] = ModelAlloc(words * 4);  // modeled address; kept out of pool_

  Region r;
  r.sym = sym;
  r.bytes.assign(words * 4, 0);
  r.init.assign(words * 4, false);
  std::vector<ExprRef> vals;
  for (uint64_t i = 0; i < words; ++i) {
    ExprRef v = rng_.Chance(60) ? Expr::Const(rng_.Range(0, 0xffff'ffff))
                                : RandomExpr(static_cast<int>(rng_.Range(1, 2)));
    WriteRegionWord(&r, i * 4, v);
    vals.push_back(std::move(v));
  }
  if (rng_.Chance(70)) {
    for (uint64_t i = 0; i < words; ++i) {
      uint32_t cv = WordAt(r.bytes, i * 4);
      std::string bind = NewSym("r");
      TemplateEvent rd = Event(EventKind::kShmRead);
      rd.addr = AddrExpr(sym, i * 4);
      rd.bind = bind;
      rd.state_changing = true;
      rd.constraint = ReadbackConstraint(bind, vals[i], cv);
      Emit(std::move(rd));
      AddKnown(bind, cv);
    }
  }
  if (rng_.Chance(40)) {
    uint64_t w = rng_.Range(0, words - 1);
    TemplateEvent p = Event(EventKind::kPollShm);
    p.addr = AddrExpr(sym, w * 4);
    p.mask = 0xffff'ffff;
    p.want = WordAt(r.bytes, w * 4);
    p.poll_cmp = Cmp::kEq;
    p.interval_us = 1;
    p.timeout_us = 1'000;
    Emit(std::move(p));
  }
  if (rng_.Chance(50)) {
    uint64_t src = rng_.Range(0, words * 4 - 4);
    uint64_t len = rng_.Range(1, words * 4 - src);
    CopyRegionToOut(r, src, len);
  }
  regions_.push_back(std::move(r));
}

// The paper's descriptor topology: build a control block in shared memory,
// point the system DMA engine at it, kick CS, wait for the completion IRQ,
// ack it, and verify the destination — exercises the DMA and IRQ fault planes
// plus symbolic descriptor fields (dma_alloc addresses as data values).
void TemplateGen::DmaDescriptorBlock() {
  uint64_t words = rng_.Range(2, 8);
  uint64_t len = words * 4;
  std::string src = NewSym("dma");
  std::string dst = NewSym("dma");
  std::string cb = NewSym("dma");
  for (const auto& [sym, size] :
       {std::pair<std::string, uint64_t>{src, len}, {dst, len}, {cb, 32}}) {
    TemplateEvent alloc = Event(EventKind::kDmaAlloc);
    alloc.bind = sym;
    alloc.value = Expr::Const(size);
    Emit(std::move(alloc));
    known_[sym] = ModelAlloc(size);
  }

  Region rs;
  rs.sym = src;
  rs.bytes.assign(len, 0);
  rs.init.assign(len, false);
  for (uint64_t i = 0; i < words; ++i) {
    WriteRegionWord(&rs, i * 4, Expr::Const(rng_.Range(0, 0xffff'ffff)));
  }

  // Control block: ti | source_ad | dest_ad | txfr_len | stride | nextconbk | 2x reserved.
  Region rc;
  rc.sym = cb;
  rc.bytes.assign(32, 0);
  rc.init.assign(32, false);
  constexpr uint32_t kTi = kDmaTiIntEn | kDmaTiSrcInc | kDmaTiDestInc;
  const ExprRef cb_words[8] = {Expr::Const(kTi),  Expr::Input(src), Expr::Input(dst),
                               Expr::Const(len),  Expr::Const(0),   Expr::Const(0),
                               Expr::Const(0),    Expr::Const(0)};
  for (int i = 0; i < 8; ++i) {
    WriteRegionWord(&rc, static_cast<uint64_t>(i) * 4, cb_words[i]);
  }

  TemplateEvent kick = Event(EventKind::kRegWrite);
  kick.device = kGenDmaDeviceId;
  kick.reg_off = kDmaConblkAd;
  kick.value = Expr::Input(cb);
  Emit(std::move(kick));
  TemplateEvent go = Event(EventKind::kRegWrite);
  go.device = kGenDmaDeviceId;
  go.reg_off = kDmaCs;
  go.value = Expr::Const(kDmaCsActive);
  Emit(std::move(go));
  TemplateEvent wait = Event(EventKind::kWaitIrq);
  wait.irq_line = kDmaIrqBase;  // channel 0 completion line
  wait.timeout_us = 100'000;
  Emit(std::move(wait));
  TemplateEvent ack = Event(EventKind::kRegWrite);
  ack.device = kGenDmaDeviceId;
  ack.reg_off = kDmaCs;
  ack.value = Expr::Const(kDmaCsEnd | kDmaCsInt);  // write-1-clear lowers the line
  Emit(std::move(ack));

  Region rd;
  rd.sym = dst;
  rd.bytes = rs.bytes;
  rd.init.assign(len, true);
  if (rng_.Chance(70)) {
    for (uint64_t i = 0; i < words; ++i) {
      uint32_t cv = WordAt(rd.bytes, i * 4);
      std::string bind = NewSym("r");
      TemplateEvent chk = Event(EventKind::kShmRead);
      chk.addr = AddrExpr(dst, i * 4);
      chk.bind = bind;
      chk.state_changing = true;
      Constraint c;
      c.AddAtom(ConstraintAtom{Expr::Input(bind), Cmp::kEq, Expr::Const(cv)});
      chk.constraint = std::move(c);
      Emit(std::move(chk));
      AddKnown(bind, cv);
    }
  }
  if (rng_.Chance(40)) {
    CopyRegionToOut(rd, 0, rng_.Range(4, len));
  }
  regions_.push_back(std::move(rs));
  regions_.push_back(std::move(rc));
  regions_.push_back(std::move(rd));
}

// Trustlet payload -> shared memory -> verified readback -> back out.
void TemplateGen::PayloadCopyBlock() {
  uint64_t len = rng_.Range(4, 32);
  uint64_t src_off = rng_.Range(0, case_.payload.size() - len);
  std::string sym = NewSym("dma");
  TemplateEvent alloc = Event(EventKind::kDmaAlloc);
  alloc.bind = sym;
  alloc.value = Expr::Const(len);
  Emit(std::move(alloc));
  known_[sym] = ModelAlloc(len);

  TemplateEvent cp = Event(EventKind::kCopyToDma);
  cp.buffer = "payload";
  cp.buf_offset = Expr::Const(src_off);
  cp.value = Expr::Const(len);
  cp.addr = Expr::Input(sym);
  Emit(std::move(cp));

  Region r;
  r.sym = sym;
  r.bytes.assign(case_.payload.begin() + static_cast<long>(src_off),
                 case_.payload.begin() + static_cast<long>(src_off + len));
  r.init.assign(len, true);
  if (rng_.Chance(60)) {
    uint32_t cv = WordAt(r.bytes, 0);
    std::string bind = NewSym("r");
    TemplateEvent rd = Event(EventKind::kShmRead);
    rd.addr = Expr::Input(sym);
    rd.bind = bind;
    rd.state_changing = true;
    Constraint c;
    c.AddAtom(ConstraintAtom{Expr::Input(bind), Cmp::kEq, Expr::Const(cv)});
    rd.constraint = std::move(c);
    Emit(std::move(rd));
    AddKnown(bind, cv);
  }
  if (rng_.Chance(50)) {
    CopyRegionToOut(r, 0, len);
  }
  regions_.push_back(std::move(r));
}

// PIO block transfers through the device FIFO (a scripted offset): pio_in
// consumes scripted words into "out", pio_out pushes payload bytes.
void TemplateGen::PioBlock() {
  uint64_t words = rng_.Range(1, 3);
  uint64_t len = words * 4 - (rng_.Chance(30) ? rng_.Range(1, 3) : 0);
  if (out_cursor_ + len <= case_.out_len) {
    uint64_t off = NextOff();
    std::vector<uint32_t>& queue = case_.script.read_queues[off];
    std::vector<uint8_t> bytes;
    for (uint64_t i = 0; i < words; ++i) {
      uint32_t v = static_cast<uint32_t>(rng_.Range(0, 0xffff'ffff));
      queue.push_back(v);
      for (int b = 0; b < 4; ++b) {
        bytes.push_back(static_cast<uint8_t>(v >> (8 * b)));
      }
    }
    TemplateEvent in = Event(EventKind::kPioIn);
    in.device = kGenDeviceId;
    in.reg_off = off;
    in.buffer = "out";
    in.buf_offset = Expr::Const(out_cursor_);
    in.value = Expr::Const(len);
    Emit(std::move(in));
    for (uint64_t i = 0; i < len; ++i) {
      case_.expected_out[out_cursor_ + i] = bytes[i];
    }
    out_cursor_ += len;
  }
  if (rng_.Chance(50)) {
    uint64_t plen = rng_.Range(1, 16);
    TemplateEvent out = Event(EventKind::kPioOut);
    out.device = kGenDeviceId;
    out.reg_off = NextOff();
    out.buffer = "payload";
    out.buf_offset = Expr::Const(rng_.Range(0, case_.payload.size() - plen));
    out.value = Expr::Const(plen);
    Emit(std::move(out));
  }
}

// Doorbell -> wait_irq -> ack against the GenDevice's scheduled raise.
void TemplateGen::IrqBlock() {
  TemplateEvent bell = Event(EventKind::kRegWrite);
  bell.device = kGenDeviceId;
  bell.reg_off = GenDevice::kDoorbellOff;
  bell.value = Expr::Const(1);
  Emit(std::move(bell));
  if (rng_.Chance(30)) {
    TemplateEvent d = Event(EventKind::kDelay);
    d.value = Expr::Const(rng_.Range(1, 100));
    Emit(std::move(d));
  }
  TemplateEvent wait = Event(EventKind::kWaitIrq);
  wait.irq_line = kGenIrqLine;
  wait.timeout_us = 10'000;
  Emit(std::move(wait));
  TemplateEvent ack = Event(EventKind::kRegWrite);
  ack.device = kGenDeviceId;
  ack.reg_off = GenDevice::kIrqAckOff;
  ack.value = Expr::Const(1);
  Emit(std::move(ack));
}

// Environment events: delays plus rand/timestamp binds. Those bound values are
// deliberately opaque — never referenced again — because they differ between
// invokes (the TEE RNG stream and the clock both advance monotonically).
void TemplateGen::MiscBlock() {
  int n = static_cast<int>(rng_.Range(1, 3));
  for (int i = 0; i < n; ++i) {
    switch (rng_.Range(0, 2)) {
      case 0: {
        TemplateEvent d = Event(EventKind::kDelay);
        d.value = Expr::Const(rng_.Range(1, 50));
        Emit(std::move(d));
        break;
      }
      case 1: {
        TemplateEvent t = Event(EventKind::kGetTimestamp);
        t.bind = NewSym("t");
        Emit(std::move(t));
        break;
      }
      default: {
        TemplateEvent r = Event(EventKind::kGetRandBytes);
        r.bind = NewSym("n");
        Emit(std::move(r));
        break;
      }
    }
  }
}

// The fTPM-pipe shape: a FIFO read whose byte length is a symbolic function
// of a scalar parameter (the variable-length response slot), preceded by an
// unconstrained statistic read (the RspLen idiom: observed, bound, never
// branched), and optionally followed by a symbolic-length request push.
void TemplateGen::VarLenPioBlock() {
  const char* param = rng_.Chance(50) ? "a" : "b";
  // len = (param & 0x18) + 8 ∈ {8, 16, 24, 32}: word-aligned and bounded, so
  // the generated FIFO script always covers it.
  ExprRef len_expr =
      Expr::Binary(ExprOp::kAdd,
                   Expr::Binary(ExprOp::kAnd, Expr::Input(param), Expr::Const(0x18)),
                   Expr::Const(8));
  uint64_t len = ValueOf(len_expr);

  // Statistic input: the device reports the length; the template observes it
  // without constraining it (it is not state-changing).
  uint64_t stat_off = NextOff();
  case_.script.read_queues[stat_off].push_back(static_cast<uint32_t>(len));
  TemplateEvent stat = Event(EventKind::kRegRead);
  stat.device = kGenDeviceId;
  stat.reg_off = stat_off;
  stat.bind = NewSym("s");  // deliberately never referenced again
  Emit(std::move(stat));

  if (out_cursor_ + len <= case_.out_len) {
    uint64_t fifo_off = NextOff();
    std::vector<uint32_t>& queue = case_.script.read_queues[fifo_off];
    std::vector<uint8_t> bytes;
    for (uint64_t i = 0; i < len / 4; ++i) {
      uint32_t v = static_cast<uint32_t>(rng_.Range(0, 0xffff'ffff));
      queue.push_back(v);
      for (int b = 0; b < 4; ++b) {
        bytes.push_back(static_cast<uint8_t>(v >> (8 * b)));
      }
    }
    TemplateEvent in = Event(EventKind::kPioIn);
    in.device = kGenDeviceId;
    in.reg_off = fifo_off;
    in.buffer = "out";
    in.buf_offset = Expr::Const(out_cursor_);
    in.value = len_expr;  // the symbolic variable-length slot
    Emit(std::move(in));
    for (uint64_t i = 0; i < len; ++i) {
      case_.expected_out[out_cursor_ + i] = bytes[i];
    }
    out_cursor_ += len;
  }

  if (rng_.Chance(60)) {
    // Symbolic-length request push from the trustlet payload.
    const char* other = param[0] == 'a' ? "b" : "a";
    ExprRef plen_expr =
        Expr::Binary(ExprOp::kAdd,
                     Expr::Binary(ExprOp::kAnd, Expr::Input(other), Expr::Const(0xc)),
                     Expr::Const(4));
    uint64_t plen = ValueOf(plen_expr);  // ∈ {4, 8, 12, 16}
    TemplateEvent out = Event(EventKind::kPioOut);
    out.device = kGenDeviceId;
    out.reg_off = NextOff();
    out.buffer = "payload";
    out.buf_offset = Expr::Const(rng_.Range(0, case_.payload.size() - plen));
    out.value = plen_expr;
    Emit(std::move(out));
  }
}

// The crypto-queue shape: build a ring of 4-word descriptors in DMA memory —
// control words carry a parameter as a symbolic bitfield and dma_alloc
// addresses as data — ring the doorbell, wait for the completion IRQ, then
// poll the consumer index, which GenDevice's doorbell completion publishes
// (doorbell_sets), so the poll only succeeds after the "engine" finished.
void TemplateGen::DescriptorRingBlock() {
  uint64_t n = rng_.Range(1, 3);

  // Consumer index: starts at 0 in the reset register file, jumps to n when
  // the doorbell's completion fires.
  uint64_t tail_off = NextOff();
  case_.script.initial_regs[tail_off] = 0;
  case_.script.doorbell_sets[tail_off] = static_cast<uint32_t>(n);

  // Per-descriptor payload regions, then the ring itself.
  std::vector<std::string> srcs;
  std::vector<Region> src_regions;
  for (uint64_t i = 0; i < n; ++i) {
    std::string src = NewSym("dma");
    TemplateEvent alloc = Event(EventKind::kDmaAlloc);
    alloc.bind = src;
    alloc.value = Expr::Const(16);
    Emit(std::move(alloc));
    known_[src] = ModelAlloc(16);
    Region r;
    r.sym = src;
    r.bytes.assign(16, 0);
    r.init.assign(16, false);
    for (uint64_t w = 0; w < 4; ++w) {
      WriteRegionWord(&r, w * 4, Expr::Const(rng_.Range(0, 0xffff'ffff)));
    }
    srcs.push_back(src);
    src_regions.push_back(std::move(r));
  }

  std::string ring = NewSym("dma");
  TemplateEvent alloc = Event(EventKind::kDmaAlloc);
  alloc.bind = ring;
  alloc.value = Expr::Const(n * 16);
  Emit(std::move(alloc));
  known_[ring] = ModelAlloc(n * 16);

  Region rr;
  rr.sym = ring;
  rr.bytes.assign(n * 16, 0);
  rr.init.assign(n * 16, false);
  const char* param = rng_.Chance(50) ? "a" : "b";
  for (uint64_t i = 0; i < n; ++i) {
    // ctrl = valid | irq-on-last | (param << 8): the parameter stays symbolic
    // inside the descriptor control word, the crypto-driver op idiom.
    uint32_t flags = 0x1 | (i + 1 == n ? 0x2 : 0);
    ExprRef dctrl =
        Expr::Binary(ExprOp::kOr, Expr::Const(flags),
                     Expr::Binary(ExprOp::kShl, Expr::Input(param), Expr::Const(8)));
    WriteRegionWord(&rr, i * 16 + 0, dctrl);
    WriteRegionWord(&rr, i * 16 + 4, Expr::Input(srcs[i]));
    WriteRegionWord(&rr, i * 16 + 8, Expr::Const(16));
    WriteRegionWord(&rr, i * 16 + 12, Expr::Const(rng_.Range(0, 0xffff'ffff)));
  }

  // Doorbell -> completion IRQ -> ack -> IRQ-gated consumer-index poll.
  TemplateEvent bell = Event(EventKind::kRegWrite);
  bell.device = kGenDeviceId;
  bell.reg_off = GenDevice::kDoorbellOff;
  bell.value = Expr::Const(1);
  Emit(std::move(bell));
  TemplateEvent wait = Event(EventKind::kWaitIrq);
  wait.irq_line = kGenIrqLine;
  wait.timeout_us = 10'000;
  Emit(std::move(wait));
  TemplateEvent ack = Event(EventKind::kRegWrite);
  ack.device = kGenDeviceId;
  ack.reg_off = GenDevice::kIrqAckOff;
  ack.value = Expr::Const(1);
  Emit(std::move(ack));
  TemplateEvent poll = Event(EventKind::kPollReg);
  poll.device = kGenDeviceId;
  poll.reg_off = tail_off;
  poll.mask = 0xffff'ffff;
  poll.want = static_cast<uint32_t>(n);
  poll.poll_cmp = Cmp::kEq;
  poll.interval_us = 2;
  poll.timeout_us = 50'000;
  poll.recorded_iters = 0;
  if (rng_.Chance(50)) {
    std::string bind = NewSym("p");
    poll.bind = bind;
    AddKnown(bind, n);
  }
  Emit(std::move(poll));

  if (rng_.Chance(50)) {
    uint64_t i = rng_.Range(0, n - 1);
    CopyRegionToOut(src_regions[i], 0, 16);
  }
  for (Region& r : src_regions) {
    regions_.push_back(std::move(r));
  }
  regions_.push_back(std::move(rr));
}

// A compound operand expression (guaranteed non-folded: it references an
// input) written to a register, read back under a symbolic masked constraint.
void TemplateGen::ExprBlock() {
  uint64_t off = NextOff();
  ExprRef v = Expr::Binary(ExprOp::kAdd, Expr::Input(pool_[rng_.Range(0, pool_.size() - 1)]),
                           RandomExpr(static_cast<int>(rng_.Range(0, 3))));
  uint32_t cv = static_cast<uint32_t>(ValueOf(v));
  TemplateEvent w = Event(EventKind::kRegWrite);
  w.device = kGenDeviceId;
  w.reg_off = off;
  w.value = v;
  Emit(std::move(w));

  std::string bind = NewSym("r");
  TemplateEvent rd = Event(EventKind::kRegRead);
  rd.device = kGenDeviceId;
  rd.reg_off = off;
  rd.bind = bind;
  rd.state_changing = true;
  Constraint c;
  c.AddAtom(ConstraintAtom{Expr::Input(bind), Cmp::kEq,
                           Expr::Binary(ExprOp::kAnd, v, Expr::Const(0xffff'ffff))});
  rd.constraint = std::move(c);
  Emit(std::move(rd));
  AddKnown(bind, cv);
}

GeneratedCase TemplateGen::Generate() {
  case_ = GeneratedCase{};
  case_.seed = cfg_.seed;
  case_.tpl.name = "gen_" + std::to_string(cfg_.seed);
  case_.tpl.entry = kGenEntry;
  case_.tpl.primary_device = kGenDeviceId;
  case_.tpl.params = {ParamSpec{"a", false}, ParamSpec{"b", false}, ParamSpec{"out", true},
                      ParamSpec{"payload", true}};
  case_.out_len = 256;
  case_.expected_out.assign(case_.out_len, 0);
  case_.payload.resize(128);
  for (uint8_t& b : case_.payload) {
    b = static_cast<uint8_t>(rng_.Next());
  }

  known_.clear();
  pool_.clear();
  regions_.clear();
  next_off_ = 0x10;
  next_alloc_ = kTeePoolBase;
  out_cursor_ = 0;
  sym_counter_ = 0;
  for (const char* name : {"a", "b"}) {
    uint64_t v = rng_.Range(1, 0xffff);
    case_.scalars[name] = v;
    AddKnown(name, v);
    if (rng_.Chance(70)) {
      ConstraintAtom atom;
      atom.lhs = Expr::Input(name);
      switch (rng_.Range(0, 3)) {
        case 0:
          atom.cmp = Cmp::kEq;
          atom.rhs = Expr::Const(v);
          break;
        case 1:
          atom.cmp = Cmp::kLe;
          atom.rhs = Expr::Const(v + rng_.Range(0, 100));
          break;
        case 2:
          atom.cmp = Cmp::kGe;
          atom.rhs = Expr::Const(v - rng_.Range(0, v));
          break;
        default:
          atom.cmp = Cmp::kNe;
          atom.rhs = Expr::Const(v + 1);
          break;
      }
      case_.tpl.initial.AddAtom(std::move(atom));
    }
  }

  int blocks = static_cast<int>(rng_.Range(static_cast<uint64_t>(cfg_.min_blocks),
                                           static_cast<uint64_t>(cfg_.max_blocks)));
  for (int i = 0; i < blocks; ++i) {
    switch (rng_.Range(0, 11)) {
      case 0:
        RegBlock();
        break;
      case 1:
        ScriptedReadBlock();
        break;
      case 2:
        PollBlock();
        break;
      case 3:
        ShmRunBlock();
        break;
      case 4:
        DmaDescriptorBlock();
        break;
      case 5:
        PayloadCopyBlock();
        break;
      case 6:
        PioBlock();
        break;
      case 7:
        IrqBlock();
        break;
      case 8:
        MiscBlock();
        break;
      case 9:
        VarLenPioBlock();
        break;
      case 10:
        DescriptorRingBlock();
        break;
      default:
        ExprBlock();
        break;
    }
  }

  if (cfg_.force_deep_expr) {
    // A right-nested chain 30 levels deep, written and read back under a
    // constraint: deep operand trees must evaluate and round-trip like
    // shallow ones.
    ExprRef v = Expr::Input("a");
    for (int i = 0; i < 30; ++i) {
      v = Expr::Binary(ExprOp::kAdd, Expr::Const(1), v);
    }
    uint32_t cv = static_cast<uint32_t>(ValueOf(v));
    uint64_t off = NextOff();
    TemplateEvent w = Event(EventKind::kRegWrite);
    w.device = kGenDeviceId;
    w.reg_off = off;
    w.value = v;
    Emit(std::move(w));
    std::string bind = NewSym("r");
    TemplateEvent rd = Event(EventKind::kRegRead);
    rd.device = kGenDeviceId;
    rd.reg_off = off;
    rd.bind = bind;
    rd.state_changing = true;
    Constraint c;
    c.AddAtom(ConstraintAtom{Expr::Input(bind), Cmp::kEq, Expr::Const(cv)});
    rd.constraint = std::move(c);
    Emit(std::move(rd));
  }

  return std::move(case_);
}

GeneratedCase GenerateCase(const GenConfig& cfg) { return TemplateGen(cfg).Generate(); }

GeneratedCase GenerateCase(uint64_t seed) {
  GenConfig cfg;
  cfg.seed = seed;
  return GenerateCase(cfg);
}

}  // namespace dlt
