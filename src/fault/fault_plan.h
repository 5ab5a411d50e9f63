// Seeded fault plans for the SoC-level fault-injection plane. A FaultPlan is a
// deterministic schedule of fault sources across the three IO planes the
// replayer depends on — MMIO register reads, DMA payload movement, and
// interrupt delivery. Same seed + same workload ⇒ the same faults fire at the
// same virtual times, so every campaign cell is exactly reproducible
// (docs/fault_injection.md). The plan is pure data; src/fault's FaultInjector
// arms it against a Machine.
#ifndef SRC_FAULT_FAULT_PLAN_H_
#define SRC_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/soc/types.h"

namespace dlt {

enum class FaultPlane : uint8_t {
  kMmio = 0,  // corrupted / stuck register reads
  kDma,       // corrupted or truncated payload transfers
  kIrq,       // dropped / delayed / spurious interrupt lines
};
const char* FaultPlaneName(FaultPlane p);

enum class FaultKind : uint8_t {
  // MMIO plane (CPU register reads through the interposed window).
  kMmioCorruptRead = 0,  // observed value XOR |arg|
  kMmioStuckValue,       // observed value forced to |arg| (stuck-busy status)
  // DMA plane.
  kDmaCorrupt,           // flip a byte in a DmaEngine control-block payload
  kDmaTruncate,          // halve the delivered length of a control block
  kBusCorruptRead,       // corrupt a bus-master read (dwc2/vc4 direct DMA)
  kBusCorruptWrite,      // corrupt RAM just written by a bus master
  // IRQ plane.
  kIrqDrop,              // suppress a Raise edge
  kIrqDelay,             // deliver a Raise edge |arg| microseconds late
  kIrqSpurious,          // assert |irq_line| unprompted, |at_us| after Arm()
  kKindCount,            // sentinel
};
const char* FaultKindName(FaultKind k);

// One fault source. Whether a matching opportunity fires is decided by the
// skip/max_faults window plus a draw from the plan's seeded stream — never by
// wall clock — so injection is a deterministic function of (plan, workload).
struct FaultSpec {
  static constexpr uint16_t kAnyDevice = 0xffff;
  static constexpr int kAnyLine = -1;
  static constexpr uint64_t kAnyReg = UINT64_MAX;

  FaultKind kind = FaultKind::kMmioCorruptRead;
  // Match filters. MMIO kinds require an explicit device; the rest default to
  // matching every opportunity on their plane.
  uint16_t device = kAnyDevice;  // MMIO target (Machine device id)
  int irq_line = kAnyLine;       // IRQ kinds (kIrqSpurious requires a line)
  uint64_t reg_off = kAnyReg;    // MMIO register-offset filter
  PhysAddr addr = 0;             // bus-master window base (size 0 = any address)
  uint64_t addr_size = 0;
  // Trigger policy.
  uint32_t prob_bp = 10000;          // basis points; 10000 = every opportunity
  uint64_t skip = 0;                 // ignore the first |skip| matching opportunities
  uint64_t max_faults = UINT64_MAX;  // stop injecting after this many
  uint64_t arg = 0;                  // kind-specific: XOR mask / stuck value / delay us
  uint64_t at_us = 0;                // kIrqSpurious: fire this long after Arm()
};

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(uint64_t seed) : seed_(seed) {}

  uint64_t seed() const { return seed_; }

  FaultPlan& Add(const FaultSpec& spec) {
    specs_.push_back(spec);
    return *this;
  }
  const std::vector<FaultSpec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }

 private:
  uint64_t seed_ = 1;
  std::vector<FaultSpec> specs_;
};

// Deterministic splitmix64 stream used for fault draws.
class FaultRng {
 public:
  explicit FaultRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  bool Draw(uint32_t prob_bp);  // true with probability prob_bp / 10000

 private:
  uint64_t state_;
};

// What a preset plan aims at: the driverlet's primary MMIO device, its
// completion line(s), and whether its payload moves through the system DMA
// engine (MMC) or by direct bus mastering (dwc2 USB, vc4 camera).
struct FaultTargets {
  uint16_t device = FaultSpec::kAnyDevice;
  int irq_line = FaultSpec::kAnyLine;  // kAnyLine = fault every line
  bool dma_via_engine = true;
};

// The per-plane plans the fault-matrix campaign sweeps: a bounded burst of
// faults (seed-varied trigger points and payloads) that a healthy recovery
// ladder should ride out.
FaultPlan MakePresetPlan(FaultPlane plane, uint64_t seed, const FaultTargets& targets);

}  // namespace dlt

#endif  // SRC_FAULT_FAULT_PLAN_H_
