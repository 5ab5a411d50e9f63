#include "src/kern/passthrough_io.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "src/soc/log.h"

namespace dlt {

PassthroughIo::PassthroughIo(Machine* machine, CmaPool* pool, World world, uint64_t rng_seed)
    : machine_(machine), pool_(pool), world_(world), rng_state_(rng_seed | 1) {}

void PassthroughIo::ChargeNs(uint64_t ns) {
  ns_accum_ += ns;
  if (ns_accum_ >= 1000) {
    machine_->clock().Advance(ns_accum_ / 1000);
    ns_accum_ %= 1000;
  }
}

Result<PhysAddr> PassthroughIo::DeviceAddr(uint16_t device, uint64_t offset) const {
  DLT_ASSIGN_OR_RETURN(Machine::DeviceEntry e, machine_->DeviceById(device));
  if (offset >= e.size) {
    return Status::kOutOfRange;
  }
  return e.base + offset;
}

TValue PassthroughIo::RegRead32(uint16_t device, uint64_t offset, SourceLoc loc) {
  (void)loc;
  ChargeNs(machine_->latency().mmio_access_ns);
  Result<PhysAddr> addr = DeviceAddr(device, offset);
  if (!addr.ok()) {
    return TValue(0);
  }
  Result<uint32_t> v = machine_->mem().Read32(world_, *addr);
  return TValue(v.value_or(0));
}

void PassthroughIo::RegWrite32(uint16_t device, uint64_t offset, const TValue& value,
                               SourceLoc loc) {
  (void)loc;
  ChargeNs(machine_->latency().mmio_access_ns);
  Result<PhysAddr> addr = DeviceAddr(device, offset);
  if (!addr.ok()) {
    return;
  }
  (void)machine_->mem().Write32(world_, *addr, value.value32());
}

TValue PassthroughIo::ShmRead32(const TValue& addr, SourceLoc loc) {
  (void)loc;
  Result<uint32_t> v = machine_->mem().Read32(world_, addr.value());
  return TValue(v.value_or(0));
}

void PassthroughIo::ShmWrite32(const TValue& addr, const TValue& value, SourceLoc loc) {
  (void)loc;
  (void)machine_->mem().Write32(world_, addr.value(), value.value32());
}

Status PassthroughIo::WaitForIrq(int line, uint64_t timeout_us, SourceLoc loc) {
  (void)loc;
  SimClock& clock = machine_->clock();
  uint64_t deadline = clock.now_us() + timeout_us;
  while (!machine_->irq().Pending(line)) {
    std::optional<uint64_t> next = clock.NextEventTime();
    if (!next.has_value() || *next > deadline) {
      clock.AdvanceTo(deadline);
      return Status::kTimeout;
    }
    clock.StepToNextEvent();
  }
  // Interrupt delivery + scheduler wakeup of the waiting task.
  clock.Advance(machine_->latency().irq_delivery_us + machine_->latency().kern_wakeup_us);
  return Status::kOk;
}

Status PassthroughIo::PollReg32(uint16_t device, uint64_t offset, uint32_t mask, uint32_t want,
                                bool negate, uint64_t timeout_us, uint64_t interval_us,
                                SourceLoc loc) {
  uint64_t waited = 0;
  while (true) {
    uint32_t v = RegRead32(device, offset, loc).value32();
    bool match = ((v & mask) == want);
    if (match != negate) {
      return Status::kOk;
    }
    if (waited >= timeout_us) {
      return Status::kTimeout;
    }
    DelayUs(interval_us == 0 ? 1 : interval_us, loc);
    waited += interval_us == 0 ? 1 : interval_us;
  }
}

void PassthroughIo::DelayUs(uint64_t us, SourceLoc loc) {
  (void)loc;
  machine_->clock().Advance(us);
}

TValue PassthroughIo::DmaAlloc(const TValue& size, SourceLoc loc) {
  (void)loc;
  Result<PhysAddr> addr = pool_->Alloc(size.value());
  if (!addr.ok()) {
    DLT_LOG(kError) << "DMA pool exhausted (" << pool_->used() << "/" << pool_->capacity() << ")";
    return TValue(0);
  }
  return TValue(*addr);
}

void PassthroughIo::DmaReleaseAll(SourceLoc loc) {
  (void)loc;
  pool_->ReleaseAll();
}

TValue PassthroughIo::GetRandomU32(SourceLoc loc) {
  (void)loc;
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 7;
  rng_state_ ^= rng_state_ << 17;
  return TValue(static_cast<uint32_t>(rng_state_));
}

TValue PassthroughIo::GetTimestampUs(SourceLoc loc) {
  (void)loc;
  return TValue(machine_->clock().now_us());
}

void PassthroughIo::CopyToDma(const TValue& dst, const uint8_t* src_base, const TValue& src_off,
                              const TValue& len, SourceLoc loc) {
  (void)loc;
  (void)machine_->mem().WriteBytes(world_, dst.value(), src_base + src_off.value(),
                                   static_cast<size_t>(len.value()));
}

void PassthroughIo::CopyFromDma(uint8_t* dst_base, const TValue& dst_off, const TValue& src,
                                const TValue& len, SourceLoc loc) {
  (void)loc;
  (void)machine_->mem().ReadBytes(world_, src.value(), dst_base + dst_off.value(),
                                  static_cast<size_t>(len.value()));
}

Result<AddressSpace::FillBytes> PassthroughIo::CopyFromDmaOrDefer(uint8_t* dst_base,
                                                                  const TValue& dst_off,
                                                                  const TValue& src,
                                                                  const TValue& len,
                                                                  SourceLoc loc) {
  (void)loc;
  return machine_->mem().ReadBytesOrDefer(world_, src.value(), dst_base + dst_off.value(),
                                          static_cast<size_t>(len.value()));
}

void PassthroughIo::PioIn(uint16_t device, uint64_t offset, uint8_t* dst_base,
                          const TValue& dst_off, const TValue& len, SourceLoc loc) {
  uint64_t total = len.value();
  uint8_t* dst = dst_base + dst_off.value();
  for (uint64_t done = 0; done < total; done += 4) {
    uint32_t w = RegRead32(device, offset, loc).value32();
    size_t take = static_cast<size_t>(std::min<uint64_t>(4, total - done));
    std::memcpy(dst + done, &w, take);
  }
}

void PassthroughIo::PioOut(uint16_t device, uint64_t offset, const uint8_t* src_base,
                           const TValue& src_off, const TValue& len, SourceLoc loc) {
  uint64_t total = len.value();
  const uint8_t* src = src_base + src_off.value();
  for (uint64_t done = 0; done < total; done += 4) {
    uint32_t w = 0;
    size_t take = static_cast<size_t>(std::min<uint64_t>(4, total - done));
    std::memcpy(&w, src + done, take);
    RegWrite32(device, offset, TValue(w), loc);
  }
}

bool PassthroughIo::Branch(const TValue& lhs, Cmp cmp, const TValue& rhs, SourceLoc loc) {
  (void)loc;
  uint64_t a = lhs.value();
  uint64_t b = rhs.value();
  switch (cmp) {
    case Cmp::kEq: return a == b;
    case Cmp::kNe: return a != b;
    case Cmp::kLt: return a < b;
    case Cmp::kLe: return a <= b;
    case Cmp::kGt: return a > b;
    case Cmp::kGe: return a >= b;
  }
  return false;
}

uint64_t PassthroughIo::NowUs() { return machine_->clock().now_us(); }

}  // namespace dlt
