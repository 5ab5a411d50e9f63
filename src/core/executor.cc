#include "src/core/executor.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <sstream>

#include "src/obs/telemetry.h"
#include "src/soc/log.h"

namespace dlt {

namespace {

// Per-kind replay latency histograms ("replay.us.<kind>"), resolved once per
// kind (registrations are permanent, so the cached pointers stay valid across
// Telemetry::Reset). Atomic slots: fleet shards replay concurrently, and a
// racing double-resolve is harmless — histogram(name) is idempotent, both
// writers store the same pointer.
Histogram& ReplayKindHistogram(EventKind k) {
  static std::array<std::atomic<Histogram*>, 16> cache{};
  size_t i = static_cast<size_t>(k);
  Histogram* h = cache[i].load(std::memory_order_acquire);
  if (h == nullptr) {
    h = &Telemetry::Get().metrics().histogram(std::string("replay.us.") + EventKindName(k));
    cache[i].store(h, std::memory_order_release);
  }
  return *h;
}

}  // namespace

std::string DescribeEvent(const TemplateEvent& e) {
  std::ostringstream os;
  os << EventKindName(e.kind);
  switch (e.kind) {
    case EventKind::kRegRead:
    case EventKind::kRegWrite:
    case EventKind::kPollReg:
    case EventKind::kPioIn:
    case EventKind::kPioOut:
      os << " dev" << e.device << "+0x" << std::hex << e.reg_off << std::dec;
      break;
    case EventKind::kWaitIrq:
      os << " irq" << e.irq_line;
      break;
    default:
      if (e.addr != nullptr) {
        os << " " << e.addr->ToString();
      }
      break;
  }
  if (!e.file.empty()) {
    os << " @" << e.file << ":" << e.line;
  }
  return os.str();
}

Executor::Executor(ReplayContext* ctx, const InteractionTemplate* tpl, const ReplayArgs* args)
    : ctx_(ctx), tpl_(tpl), args_(args), bindings_(args->scalars) {}

Result<uint64_t> Executor::EvalExpr(const ExprRef& e) const {
  if (e == nullptr) {
    return Status::kCorrupt;
  }
  Result<uint64_t> r = e->Eval(bindings_);
  if (!r.ok()) {
    return Status::kCorrupt;  // template references a symbol that never bound
  }
  return r;
}

Result<PhysAddr> Executor::EvalAddr(const ExprRef& e, size_t access_len) const {
  DLT_ASSIGN_OR_RETURN(uint64_t addr, EvalExpr(e));
  // Security hardening: symbolic addresses must land inside this run's own
  // allocations AND inside the TEE pool (pervasive boundary checks, paper §5).
  bool inside = false;
  for (const auto& a : allocs_) {
    if (RangeWithin(addr, access_len, a.base, a.size)) {
      inside = true;
      break;
    }
  }
  if (!inside || !ctx_->AddressAllowed(addr, access_len)) {
    return Status::kPermissionDenied;
  }
  return addr;
}

void Executor::FillDivergence(const TemplateEvent& e, size_t index, uint64_t observed,
                              DivergenceReport* report) const {
  // Single choke point for every divergence flavour (constraint violation,
  // poll/IRQ timeout, allocation failure) — telemetry taps it here.
  Telemetry& t = Telemetry::Get();
  if (t.enabled()) {
    t.metrics().counter("replay.divergences").Inc();
    t.metrics().counter("replay.constraint_failures." + tpl_->name).Inc();
    t.Instant(TraceKind::kDivergence, ctx_->TimestampUs(), tpl_->name, observed, index,
              e.device);
  }
  report->valid = true;
  report->template_name = tpl_->name;
  report->event_index = index;
  report->event_desc = DescribeEvent(e);
  report->file = e.file;
  report->line = e.line;
  report->observed = observed;
  report->expected_constraint = e.constraint.ToString();
  report->rewound.clear();
  for (size_t i = 0; i <= index && i < tpl_->events.size(); ++i) {
    report->rewound.push_back(DescribeEvent(tpl_->events[i]));
  }
}

Status Executor::BindAndCheck(const TemplateEvent& e, size_t index, uint64_t observed,
                              DivergenceReport* report) {
  if (!e.bind.empty()) {
    bindings_[e.bind] = observed;
  }
  return CheckConstraint(e, index, observed, report);
}

Status Executor::CheckConstraint(const TemplateEvent& e, size_t index, uint64_t observed,
                                 DivergenceReport* report) {
  if (e.constraint.empty()) {
    return Status::kOk;
  }
  Telemetry& t = Telemetry::Get();
  if (t.enabled()) {
    t.metrics().counter("replay.constraint_evals").Inc();
    t.Instant(TraceKind::kConstraintEval, ctx_->TimestampUs(),
              e.bind.empty() ? EventKindName(e.kind) : e.bind, observed, index, e.device);
  }
  Result<bool> ok = e.constraint.Eval(bindings_);
  if (!ok.ok()) {
    return Status::kCorrupt;
  }
  if (!*ok) {
    // A state-changing input deviated from the recording: device state
    // transition divergence (paper §3.3).
    FillDivergence(e, index, observed, report);
    return Status::kDiverged;
  }
  return Status::kOk;
}

Status Executor::CheckBufferSpan(const ConstBufferView& buf, const TemplateEvent& e,
                                 uint64_t* offset, uint64_t* len) const {
  if (buf.data == nullptr) {
    return Status::kInvalidArg;
  }
  DLT_ASSIGN_OR_RETURN(*offset, EvalExpr(e.buf_offset));
  DLT_ASSIGN_OR_RETURN(*len, EvalExpr(e.value));
  // Boundary check trustlet-provided buffers (paper §5 security hardening).
  if (*offset + *len < *offset || *offset + *len > buf.len) {
    return Status::kInvalidArg;
  }
  return Status::kOk;
}

Result<BufferView> Executor::ResolveWritable(const TemplateEvent& e, uint64_t* offset,
                                             uint64_t* len) const {
  auto it = args_->buffers.find(e.buffer);
  if (it == args_->buffers.end()) {
    // The template wants to fill this buffer; a read-only view under the same
    // name is a caller error, not a license to cast constness away.
    return args_->ro_buffers.count(e.buffer) != 0 ? Status::kPermissionDenied
                                                  : Status::kInvalidArg;
  }
  DLT_RETURN_IF_ERROR(CheckBufferSpan(it->second, e, offset, len));
  return it->second;
}

Result<ConstBufferView> Executor::ResolveReadable(const TemplateEvent& e, uint64_t* offset,
                                                  uint64_t* len) const {
  auto it = args_->buffers.find(e.buffer);
  if (it != args_->buffers.end()) {
    DLT_RETURN_IF_ERROR(CheckBufferSpan(it->second, e, offset, len));
    return ConstBufferView(it->second);
  }
  auto ro = args_->ro_buffers.find(e.buffer);
  if (ro == args_->ro_buffers.end()) {
    return Status::kInvalidArg;
  }
  DLT_RETURN_IF_ERROR(CheckBufferSpan(ro->second, e, offset, len));
  return ro->second;
}

Status Executor::RunOne(const TemplateEvent& e, size_t index, DivergenceReport* report) {
  Telemetry& t = Telemetry::Get();
  if (!t.enabled()) {
    return ExecuteOne(e, index, report);
  }
  uint64_t t0 = ctx_->TimestampUs();
  Status s = ExecuteOne(e, index, report);
  uint64_t dur = ctx_->TimestampUs() - t0;
  t.metrics().counter("replay.events").Inc();
  ReplayKindHistogram(e.kind).Record(dur);
  t.Span(TraceKind::kReplayEvent, t0, dur, EventKindName(e.kind), index,
         static_cast<uint64_t>(s), e.device);
  return s;
}

Status Executor::ExecuteOne(const TemplateEvent& e, size_t index, DivergenceReport* report) {
  ctx_->ChargeReplayOverheadNs(kReplayInterpEventNs);
  ++events_executed_;
  switch (e.kind) {
    case EventKind::kRegRead: {
      DLT_ASSIGN_OR_RETURN(uint32_t v, ctx_->RegRead32(e.device, e.reg_off));
      return BindAndCheck(e, index, v, report);
    }
    case EventKind::kShmRead: {
      DLT_ASSIGN_OR_RETURN(PhysAddr addr, EvalAddr(e.addr, 4));
      DLT_ASSIGN_OR_RETURN(uint32_t v, ctx_->MemRead32(addr));
      return BindAndCheck(e, index, v, report);
    }
    case EventKind::kDmaAlloc: {
      DLT_ASSIGN_OR_RETURN(uint64_t size, EvalExpr(e.value));
      Result<PhysAddr> addr = ctx_->DmaAlloc(size);
      if (!addr.ok()) {
        FillDivergence(e, index, 0, report);
        return Status::kDiverged;  // allocation failure diverges from recording
      }
      allocs_.push_back(Alloc{*addr, size});
      return BindAndCheck(e, index, *addr, report);
    }
    case EventKind::kGetRandBytes: {
      DLT_ASSIGN_OR_RETURN(uint32_t v, ctx_->RandomU32());
      return BindAndCheck(e, index, v, report);
    }
    case EventKind::kGetTimestamp: {
      uint64_t v = ctx_->TimestampUs();
      return BindAndCheck(e, index, v, report);
    }
    case EventKind::kWaitIrq: {
      Status s = ctx_->WaitForIrq(e.irq_line, e.timeout_us == 0 ? 1'000'000 : e.timeout_us);
      if (!Ok(s)) {
        FillDivergence(e, index, 0, report);
        return Status::kDiverged;
      }
      return Status::kOk;
    }
    case EventKind::kCopyFromDma: {
      uint64_t off = 0;
      uint64_t len = 0;
      DLT_ASSIGN_OR_RETURN(BufferView buf, ResolveWritable(e, &off, &len));
      DLT_ASSIGN_OR_RETURN(PhysAddr src, EvalAddr(e.addr, len));
      return ctx_->MemCopyOut(buf.data + off, src, len);
    }
    case EventKind::kPioIn: {
      uint64_t off = 0;
      uint64_t len = 0;
      DLT_ASSIGN_OR_RETURN(BufferView buf, ResolveWritable(e, &off, &len));
      if (len == 0) {
        return Status::kOk;
      }
      size_t words = static_cast<size_t>((len + 3) / 4);
      pio_scratch_.assign(words, 0);
      DLT_RETURN_IF_ERROR(ctx_->RegReadBlock32(e.device, e.reg_off, pio_scratch_.data(), words));
      std::memcpy(buf.data + off, pio_scratch_.data(), static_cast<size_t>(len));
      return Status::kOk;
    }
    case EventKind::kRegWrite: {
      DLT_ASSIGN_OR_RETURN(uint64_t v, EvalExpr(e.value));
      return ctx_->RegWrite32(e.device, e.reg_off, static_cast<uint32_t>(v));
    }
    case EventKind::kShmWrite: {
      DLT_ASSIGN_OR_RETURN(PhysAddr addr, EvalAddr(e.addr, 4));
      DLT_ASSIGN_OR_RETURN(uint64_t v, EvalExpr(e.value));
      return ctx_->MemWrite32(addr, static_cast<uint32_t>(v));
    }
    case EventKind::kDelay: {
      DLT_ASSIGN_OR_RETURN(uint64_t us, EvalExpr(e.value));
      ctx_->DelayUs(us);
      return Status::kOk;
    }
    case EventKind::kCopyToDma: {
      uint64_t off = 0;
      uint64_t len = 0;
      DLT_ASSIGN_OR_RETURN(ConstBufferView buf, ResolveReadable(e, &off, &len));
      DLT_ASSIGN_OR_RETURN(PhysAddr dst, EvalAddr(e.addr, len));
      return ctx_->MemCopyIn(dst, buf.data + off, len);
    }
    case EventKind::kPioOut: {
      uint64_t off = 0;
      uint64_t len = 0;
      DLT_ASSIGN_OR_RETURN(ConstBufferView buf, ResolveReadable(e, &off, &len));
      if (len == 0) {
        return Status::kOk;
      }
      size_t words = static_cast<size_t>((len + 3) / 4);
      pio_scratch_.assign(words, 0);  // zero-pads the tail word
      std::memcpy(pio_scratch_.data(), buf.data + off, static_cast<size_t>(len));
      return ctx_->RegWriteBlock32(e.device, e.reg_off, pio_scratch_.data(), words);
    }
    case EventKind::kPollReg:
    case EventKind::kPollShm: {
      uint64_t timeout = e.timeout_us == 0 ? 1'000'000 : e.timeout_us;
      uint64_t waited = 0;
      while (true) {
        uint32_t v = 0;
        if (e.kind == EventKind::kPollReg) {
          DLT_ASSIGN_OR_RETURN(v, ctx_->RegRead32(e.device, e.reg_off));
        } else {
          DLT_ASSIGN_OR_RETURN(PhysAddr addr, EvalAddr(e.addr, 4));
          DLT_ASSIGN_OR_RETURN(v, ctx_->MemRead32(addr));
        }
        if (CompareValues(e.poll_cmp, v & e.mask, e.want)) {
          if (!e.bind.empty()) {
            bindings_[e.bind] = v;
          }
          return Status::kOk;
        }
        if (waited >= timeout) {
          FillDivergence(e, index, v, report);
          return Status::kDiverged;
        }
        DLT_RETURN_IF_ERROR(RunEvents(e.body, report));
        uint64_t step = e.interval_us == 0 ? 1 : e.interval_us;
        ctx_->DelayUs(step);
        waited += step;
      }
    }
  }
  return Status::kUnsupported;
}

Status Executor::RunEvents(const std::vector<TemplateEvent>& events, DivergenceReport* report) {
  for (size_t i = 0; i < events.size(); ++i) {
    DLT_RETURN_IF_ERROR(RunOne(events[i], i, report));
  }
  return Status::kOk;
}

Status Executor::Run(DivergenceReport* report) {
  // Counts top-level events only (RunEvents also serves poll bodies, which
  // the measurement excludes).
  const std::vector<TemplateEvent>& events = tpl_->events;
  for (; events_completed_ < events.size(); ++events_completed_) {
    DLT_RETURN_IF_ERROR(RunOne(events[events_completed_], events_completed_, report));
  }
  return Status::kOk;
}

}  // namespace dlt
