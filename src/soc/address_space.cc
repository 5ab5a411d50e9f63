#include "src/soc/address_space.h"

#include "src/obs/telemetry.h"
#include "src/soc/log.h"

namespace dlt {

namespace {
// Cached once: registrations are permanent, so the pointers never dangle.
void CountMmio(bool write) {
  Telemetry& t = Telemetry::Get();
  static Counter* reads = &t.metrics().counter("mmio.reads");
  static Counter* writes = &t.metrics().counter("mmio.writes");
  (write ? writes : reads)->Inc();
}
}  // namespace

bool AddressSpace::Overlaps(PhysAddr base, uint64_t size) const {
  auto hit = [&](PhysAddr b, uint64_t s) { return base < b + s && b < base + size; };
  for (const auto& w : ram_) {
    if (hit(w.base, w.size)) {
      return true;
    }
  }
  for (const auto& w : mmio_) {
    if (hit(w.base, w.size)) {
      return true;
    }
  }
  return false;
}

Status AddressSpace::AddRam(PhysAddr base, uint64_t size) {
  if (size == 0 || Overlaps(base, size)) {
    return Status::kInvalidArg;
  }
  RamWindow w;
  w.base = base;
  w.size = size;
  w.bytes.reset(static_cast<uint8_t*>(std::calloc(size, 1)));
  if (w.bytes == nullptr) {
    return Status::kNoMemory;
  }
  ram_.push_back(std::move(w));
  return Status::kOk;
}

Status AddressSpace::MapMmio(PhysAddr base, uint64_t size, MmioDevice* dev) {
  if (size == 0 || dev == nullptr || Overlaps(base, size)) {
    return Status::kInvalidArg;
  }
  mmio_.push_back(MmioWindow{base, size, dev});
  return Status::kOk;
}

Status AddressSpace::InterposeMmio(MmioDevice* from, MmioDevice* to) {
  if (from == nullptr || to == nullptr) {
    return Status::kInvalidArg;
  }
  for (auto& w : mmio_) {
    if (w.dev == from) {
      w.dev = to;
      return Status::kOk;
    }
  }
  return Status::kNotFound;
}

AddressSpace::RamWindow* AddressSpace::RamAt(PhysAddr a, uint64_t size) {
  for (auto& w : ram_) {
    if (RangeWithin(a, size, w.base, w.size)) {
      return &w;
    }
  }
  return nullptr;
}

const AddressSpace::PendingPiece* AddressSpace::PieceHolding(PhysAddr a, uint64_t n) const {
  for (const PendingPiece& p : pending_) {
    if (n > 0 && a >= p.a && a + n <= p.a + p.n) {
      return &p;
    }
  }
  return nullptr;
}

uint8_t* AddressSpace::Landed(RamWindow* ram, PhysAddr a, uint64_t n) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->Overlaps(a, n)) {
      it->Land();
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  return ram->bytes.get() + (a - ram->base);
}

void AddressSpace::CopyOut(RamWindow* ram, PhysAddr a, void* dst, size_t n) {
  if (const PendingPiece* p = PieceHolding(a, n); p != nullptr) {
    p->gen(p->off + (a - p->a), static_cast<uint8_t*>(dst), n);
    return;
  }
  std::memcpy(dst, Landed(ram, a, n), n);
}

void AddressSpace::TrimPending(PhysAddr a, uint64_t n) {
  std::vector<PendingPiece> kept;
  for (PendingPiece& p : pending_) {
    if (!p.Overlaps(a, n)) {
      kept.push_back(std::move(p));
      continue;
    }
    if (p.a < a) {
      kept.push_back(PendingPiece{p.a, a - p.a, p.off, p.ram, p.gen});
    }
    if (a + n < p.a + p.n) {
      const size_t cut = a + n - p.a;
      kept.push_back(PendingPiece{a + n, p.n - cut, p.off + cut, p.ram + cut, std::move(p.gen)});
    }
  }
  pending_ = std::move(kept);
}

uint32_t AddressSpace::MmioCursor::Read() {
  if (Telemetry::Get().enabled()) {
    CountMmio(/*write=*/false);
  }
  return win_->dev->MmioRead32(off_);
}

void AddressSpace::MmioCursor::Write(uint32_t v) {
  if (Telemetry::Get().enabled()) {
    CountMmio(/*write=*/true);
  }
  win_->dev->MmioWrite32(off_, v);
}

Result<AddressSpace::MmioCursor> AddressSpace::MmioAt(World w, PhysAddr a) {
  if (tzasc_ != nullptr && !tzasc_->AllowsRange(w, a, 4)) {
    return Status::kPermissionDenied;
  }
  for (auto& win : mmio_) {
    if (a >= win.base && a < win.base + win.size) {
      if ((a & 3) != 0) {
        return Status::kInvalidArg;
      }
      return MmioCursor(&win, a - win.base);
    }
  }
  return Status::kOutOfRange;
}

MmioDevice* AddressSpace::DeviceAt(PhysAddr a, uint64_t* offset_out) const {
  for (const auto& w : mmio_) {
    if (a >= w.base && a < w.base + w.size) {
      if (offset_out != nullptr) {
        *offset_out = a - w.base;
      }
      return w.dev;
    }
  }
  return nullptr;
}

Result<uint32_t> AddressSpace::Read32(World w, PhysAddr a) {
  if (tzasc_ != nullptr && !tzasc_->AllowsRange(w, a, 4)) {
    return Status::kPermissionDenied;
  }
  uint64_t off = 0;
  if (MmioDevice* dev = DeviceAt(a, &off); dev != nullptr) {
    if ((a & 3) != 0) {
      return Status::kInvalidArg;
    }
    if (Telemetry::Get().enabled()) {
      CountMmio(/*write=*/false);
    }
    return dev->MmioRead32(off);
  }
  if (RamWindow* ram = RamAt(a, 4); ram != nullptr) {
    uint32_t v = 0;
    CopyOut(ram, a, &v, 4);
    return v;
  }
  return Status::kOutOfRange;
}

Status AddressSpace::Write32(World w, PhysAddr a, uint32_t v) {
  if (tzasc_ != nullptr && !tzasc_->AllowsRange(w, a, 4)) {
    return Status::kPermissionDenied;
  }
  uint64_t off = 0;
  if (MmioDevice* dev = DeviceAt(a, &off); dev != nullptr) {
    if ((a & 3) != 0) {
      return Status::kInvalidArg;
    }
    if (Telemetry::Get().enabled()) {
      CountMmio(/*write=*/true);
    }
    dev->MmioWrite32(off, v);
    return Status::kOk;
  }
  if (RamWindow* ram = RamAt(a, 4); ram != nullptr) {
    std::memcpy(Landed(ram, a, 4), &v, 4);
    return Status::kOk;
  }
  return Status::kOutOfRange;
}

Status AddressSpace::ReadBytes(World w, PhysAddr a, void* dst, size_t n) {
  if (tzasc_ != nullptr && !tzasc_->AllowsRange(w, a, n)) {
    return Status::kPermissionDenied;
  }
  if (RamWindow* ram = RamAt(a, n); ram != nullptr) {
    CopyOut(ram, a, dst, n);
    return Status::kOk;
  }
  return Status::kOutOfRange;
}

Result<AddressSpace::FillBytes> AddressSpace::ReadBytesOrDefer(World w, PhysAddr a, void* dst,
                                                                size_t n) {
  if (const PendingPiece* p = PieceHolding(a, n); p != nullptr) {
    if (tzasc_ != nullptr && !tzasc_->AllowsRange(w, a, n)) {
      return Status::kPermissionDenied;
    }
    return FillBytes{p->gen, p->off + (a - p->a), n};
  }
  DLT_RETURN_IF_ERROR(ReadBytes(w, a, dst, n));
  return FillBytes{};
}

Status AddressSpace::WriteBytes(World w, PhysAddr a, const void* src, size_t n) {
  if (tzasc_ != nullptr && !tzasc_->AllowsRange(w, a, n)) {
    return Status::kPermissionDenied;
  }
  if (RamWindow* ram = RamAt(a, n); ram != nullptr) {
    std::memcpy(Landed(ram, a, n), src, n);
    return Status::kOk;
  }
  return Status::kOutOfRange;
}

uint8_t* AddressSpace::RamPtr(PhysAddr a, uint64_t size) {
  RamWindow* ram = RamAt(a, size);
  if (ram == nullptr) {
    return nullptr;
  }
  return Landed(ram, a, size);
}

Status AddressSpace::DmaRead(PhysAddr a, void* dst, size_t n) {
  if (RamWindow* ram = RamAt(a, n); ram != nullptr) {
    CopyOut(ram, a, dst, n);
    if (bus_fault_hook_ != nullptr) {
      bus_fault_hook_->OnDmaRead(a, static_cast<uint8_t*>(dst), n);
    }
    return Status::kOk;
  }
  return Status::kOutOfRange;
}

Status AddressSpace::DmaWrite(PhysAddr a, const void* src, size_t n) {
  RamWindow* ram = RamAt(a, n);
  if (ram == nullptr) {
    return Status::kOutOfRange;
  }
  uint8_t* dst = Landed(ram, a, n);
  std::memcpy(dst, src, n);
  if (bus_fault_hook_ != nullptr) {
    bus_fault_hook_->OnDmaWrite(a, dst, n);
  }
  return Status::kOk;
}

Status AddressSpace::DmaFill(PhysAddr a, size_t n, FillGen gen) {
  RamWindow* ram = RamAt(a, n);
  if (ram == nullptr) {
    return Status::kOutOfRange;
  }
  TrimPending(a, n);
  uint8_t* dst = ram->bytes.get() + (a - ram->base);
  if (bus_fault_hook_ == nullptr) {
    if (n > 0) {
      pending_.push_back(PendingPiece{a, n, 0, dst, std::move(gen)});
    }
    while (pending_.size() > kMaxPendingPieces) {
      pending_.front().Land();
      pending_.erase(pending_.begin());
    }
    return Status::kOk;
  }
  gen(0, dst, n);
  bus_fault_hook_->OnDmaWrite(a, dst, n);
  return Status::kOk;
}

}  // namespace dlt
