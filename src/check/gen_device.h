// GenDevice: the synthetic MMIO device the conformance generator binds its
// templates to. Where the gold devices (MMC, dwc2, vc4) model real hardware,
// GenDevice is pure scripting surface: every register read the generated
// template performs is answered from a per-offset queue the generator filled
// when it decided what the template should observe, so replay of an arbitrary
// generated template is well-defined — the device-side responses are part of
// the same seeded artifact as the template itself (docs/conformance.md).
//
// The window also provides the handful of behaviours generated templates need
// from a "real" device: a doorbell register whose write schedules an IRQ raise
// a fixed virtual delay later (so kWaitIrq events have something to wait on),
// an ack register that lowers the line (level-triggered controller), and a
// FIFO offset backed by the same read queues for PIO block transfers.
//
// SoftReset() restores the scripted initial register file, rewinds every read
// queue and cancels in-flight doorbell raises. That property is load-bearing:
// the replayer soft-resets the primary device before every attempt (a
// GenDevice has no StateDigest, so its templates never prove clean and no
// reset is elided), and the determinism/fault-plane invariants rely on
// attempt N seeing exactly the byte stream attempt 1 saw.
#ifndef SRC_CHECK_GEN_DEVICE_H_
#define SRC_CHECK_GEN_DEVICE_H_

#include <map>
#include <vector>

#include "src/soc/device.h"
#include "src/soc/irq.h"
#include "src/soc/sim_clock.h"

namespace dlt {

// Free MMIO window + IRQ line on the rpi3 board map (clear of every device
// Machine or Rpi3Testbed attaches).
inline constexpr PhysAddr kGenDeviceBase = 0x3F60'0000;
inline constexpr uint64_t kGenDeviceSize = 0x1000;
inline constexpr int kGenIrqLine = 60;

// The device half of a generated conformance case: initial register file,
// per-offset read scripts, and the doorbell latency. Pure data, produced by
// TemplateGen alongside the template, serialized into repro files.
struct GenScript {
  std::map<uint64_t, uint32_t> initial_regs;
  // Successive MmioRead32 values per offset; exhausted queues fall back to the
  // current register value. Cursor state rewinds on SoftReset.
  std::map<uint64_t, std::vector<uint32_t>> read_queues;
  uint64_t irq_delay_us = 40;  // doorbell write -> Raise latency
  // Completion state applied when a doorbell raise fires: each entry sets the
  // register at |offset| to |value| — how generated descriptor-ring templates
  // get a consumer index that only catches up after the "engine" finishes
  // (the IRQ-gated poll idiom). SoftReset restores the initial register file,
  // so each attempt re-earns the completion through its own doorbell.
  std::map<uint64_t, uint32_t> doorbell_sets;
};

class GenDevice : public MmioDevice {
 public:
  // Writing any value here schedules Raise(line) after script.irq_delay_us.
  static constexpr uint64_t kDoorbellOff = 0xf00;
  // Writing any value here clears the line (the device-level IRQ ack).
  static constexpr uint64_t kIrqAckOff = 0xf04;

  GenDevice(SimClock* clock, InterruptController* irq, int line = kGenIrqLine);
  ~GenDevice() override;

  // Installs the script and applies its reset state. Call before replay.
  void Configure(GenScript script);

  int irq_line() const { return line_; }

  // ---- MmioDevice ----
  std::string_view name() const override { return "gen"; }
  uint32_t MmioRead32(uint64_t offset) override;
  void MmioWrite32(uint64_t offset, uint32_t value) override;
  void SoftReset() override;

 private:
  void CancelPendingRaises();

  SimClock* clock_;
  InterruptController* irq_;
  int line_;
  GenScript script_;
  std::map<uint64_t, uint32_t> regs_;
  std::map<uint64_t, size_t> cursors_;  // read-queue positions
  std::vector<SimClock::EventId> pending_raises_;
};

}  // namespace dlt

#endif  // SRC_CHECK_GEN_DEVICE_H_
