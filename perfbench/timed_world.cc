#include "timed_world.h"

#include <cstdio>

namespace perfbench {

using dlt::PhysAddr;
using dlt::Result;
using dlt::Status;

bool SpanLog::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"op\": %u}%s\n",
                 i, s.name, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 s.parent, s.op, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void SocTotals::Add(const SocTotals& o) {
  for (int k = 0; k < kSocKinds; ++k) {
    calls[k] += o.calls[k];
    host_ns[k] += o.host_ns[k];
    model_us[k] += o.model_us[k];
    units[k] += o.units[k];
  }
  gap_service_ns += o.gap_service_ns;
  gap_exec_ns += o.gap_exec_ns;
}

int64_t SocTotals::soc_host_ns() const {
  int64_t sum = 0;
  for (int k = 0; k < kSocKinds; ++k) {
    sum += host_ns[k];
  }
  return sum;
}

TimedSecureWorld::TimedSecureWorld(dlt::Machine* machine, const std::vector<uint16_t>& devices)
    : SecureWorld(machine) {
  for (uint16_t id : devices) {
    (void)MapDevice(id);
  }
}

void TimedSecureWorld::BeginWindow(int32_t parent_span, uint32_t op) {
  in_window_ = true;
  parent_span_ = parent_span;
  op_ = op;
  last_end_ns_ = NowNs();
}

void TimedSecureWorld::EndWindow() {
  if (in_window_) {
    totals_.gap_service_ns += NowNs() - last_end_ns_;
  }
  in_window_ = false;
}

SocTotals TimedSecureWorld::TakeTotals() {
  SocTotals t = totals_;
  totals_ = SocTotals{};
  return t;
}

template <typename Fn>
auto TimedSecureWorld::Timed(int kind, uint64_t units, Fn&& fn) -> decltype(fn()) {
  if (!armed_ || depth_ > 0) {
    return fn();
  }
  ++depth_;
  uint64_t m0 = machine()->clock().now_us();
  int64_t t0 = NowNs();
  auto result = fn();
  int64_t t1 = NowNs();
  uint64_t m1 = machine()->clock().now_us();
  --depth_;
  if (in_window_) {
    (kind == kReset ? totals_.gap_service_ns : totals_.gap_exec_ns) += t0 - last_end_ns_;
    last_end_ns_ = t1;
  }
  totals_.calls[kind] += 1;
  totals_.units[kind] += units;
  totals_.host_ns[kind] += t1 - t0;
  totals_.model_us[kind] += m1 - m0;
  if (log_ != nullptr) {
    log_->Add(SocKindName(kind), t0, t1, parent_span_, op_);
  }
  return result;
}

Result<uint32_t> TimedSecureWorld::RegRead32(uint16_t device, uint64_t offset) {
  return Timed(kMmio, 1, [&] { return SecureWorld::RegRead32(device, offset); });
}

Status TimedSecureWorld::RegWrite32(uint16_t device, uint64_t offset, uint32_t value) {
  return Timed(kMmio, 1, [&] { return SecureWorld::RegWrite32(device, offset, value); });
}

Status TimedSecureWorld::RegReadBlock32(uint16_t device, uint64_t offset, uint32_t* out,
                                        size_t words) {
  return Timed(kMmio, words,
               [&] { return SecureWorld::RegReadBlock32(device, offset, out, words); });
}

Status TimedSecureWorld::RegWriteBlock32(uint16_t device, uint64_t offset, const uint32_t* values,
                                         size_t words) {
  return Timed(kMmio, words,
               [&] { return SecureWorld::RegWriteBlock32(device, offset, values, words); });
}

Result<uint32_t> TimedSecureWorld::MemRead32(PhysAddr addr) {
  return Timed(kDma, 4, [&] { return SecureWorld::MemRead32(addr); });
}

Status TimedSecureWorld::MemWrite32(PhysAddr addr, uint32_t value) {
  return Timed(kDma, 4, [&] { return SecureWorld::MemWrite32(addr, value); });
}

Status TimedSecureWorld::MemCopyIn(PhysAddr dst, const uint8_t* src, size_t len) {
  return Timed(kDma, len, [&] { return SecureWorld::MemCopyIn(dst, src, len); });
}

Status TimedSecureWorld::MemCopyOut(uint8_t* dst, PhysAddr src, size_t len) {
  return Timed(kDma, len, [&] { return SecureWorld::MemCopyOut(dst, src, len); });
}

Result<PhysAddr> TimedSecureWorld::DmaAlloc(uint64_t size) {
  return Timed(kDma, 0, [&] { return SecureWorld::DmaAlloc(size); });
}

// Void calls return a dummy so one wrapper serves every call.
void TimedSecureWorld::DmaReleaseAll() {
  Timed(kDma, 0, [&] {
    SecureWorld::DmaReleaseAll();
    return 0;
  });
}

Status TimedSecureWorld::WaitForIrq(int line, uint64_t timeout_us) {
  return Timed(kIrq, 0, [&] { return SecureWorld::WaitForIrq(line, timeout_us); });
}

void TimedSecureWorld::DelayUs(uint64_t us) {
  Timed(kDelay, 0, [&] {
    SecureWorld::DelayUs(us);
    return 0;
  });
}

Status TimedSecureWorld::SoftResetDevice(uint16_t device) {
  return Timed(kReset, 0, [&] { return SecureWorld::SoftResetDevice(device); });
}

}  // namespace perfbench
