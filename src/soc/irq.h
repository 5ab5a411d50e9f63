// Level-triggered interrupt controller. Devices Raise() a line; drivers clear the
// source in the device, then the device (or the driver via the controller) lowers it.
#ifndef SRC_SOC_IRQ_H_
#define SRC_SOC_IRQ_H_

#include <array>
#include <cstdint>

namespace dlt {

class SimClock;

// Fault-injection hook over Raise() edges (src/fault's FaultInjector). OnRaise
// runs before the line is asserted; returning false suppresses the edge — the
// injector either drops it outright or re-raises the line itself later (a
// delayed delivery). At most one hook is installed per controller.
class IrqFaultHook {
 public:
  virtual ~IrqFaultHook() = default;
  virtual bool OnRaise(int line) = 0;
};

class InterruptController {
 public:
  static constexpr int kMaxLines = 96;

  // Optional: lets Raise() stamp telemetry trace events with virtual time.
  // Machine binds its clock at assembly; a controller without a clock still
  // counts raises but emits no trace events.
  void BindClock(const SimClock* clock) { clock_ = clock; }

  // Fault injection: nullptr uninstalls.
  void set_fault_hook(IrqFaultHook* hook) { fault_hook_ = hook; }

  void Raise(int line);
  void Clear(int line);
  bool Pending(int line) const;

  // Lifetime statistics: how many distinct Raise() edges a line has seen. The camera
  // benchmarks use this to quantify IRQ coalescing (native) vs per-event IRQs (replay).
  uint64_t raise_count(int line) const;

 private:
  bool ValidLine(int line) const { return line >= 0 && line < kMaxLines; }

  uint64_t pending_mask_ = 0;  // lines 0..63
  uint32_t pending_hi_ = 0;    // lines 64..95
  std::array<uint64_t, kMaxLines> raise_counts_{};
  const SimClock* clock_ = nullptr;
  IrqFaultHook* fault_hook_ = nullptr;
};

}  // namespace dlt

#endif  // SRC_SOC_IRQ_H_
