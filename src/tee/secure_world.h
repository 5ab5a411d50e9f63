// SecureWorld: the OPTEE-like TEE runtime hosting trustlets and the replayer.
// Owns the reserved TEE RAM pool (the paper reserves 3 MB and uses the stock
// OPTEE allocator, §7.3.1), maps TZASC-assigned devices into the TEE, and
// implements core::ReplayContext — the only services the replayer needs from a
// TEE kernel (§5 "Instantiating the template").
#ifndef SRC_TEE_SECURE_WORLD_H_
#define SRC_TEE_SECURE_WORLD_H_

#include <set>

#include "src/core/replay_context.h"
#include "src/soc/cma_pool.h"
#include "src/soc/machine.h"

namespace dlt {

// Default TEE reservation mirroring the paper: 3 MB of RAM.
inline constexpr PhysAddr kTeePoolBase = 0x0300'0000;
inline constexpr uint64_t kTeePoolSize = 3ull << 20;

class SecureWorld : public ReplayContext {
 public:
  SecureWorld(Machine* machine, PhysAddr pool_base = kTeePoolBase,
              uint64_t pool_size = kTeePoolSize, uint64_t rng_seed = 0x7ee5eed);

  // Maps a device's registers into the TEE. The device instance must have been
  // assigned to the secure world by firmware (Machine::AssignToSecureWorld);
  // otherwise the mapping is refused.
  Status MapDevice(uint16_t device_id);
  bool DeviceMapped(uint16_t device_id) const { return mapped_.count(device_id) != 0; }

  CmaPool& pool() { return pool_; }
  Machine* machine() { return machine_; }

  // Charges one SMC boundary crossing (latency_model.h:world_switch_us) to the
  // virtual clock, bumps the local crossing counter, and — when telemetry is
  // armed — the `tee.world_switches` counter plus a kWorldSwitch trace
  // instant. |direction| is 0 for normal→secure entry, 1 for the return.
  void WorldSwitch(std::string_view label, uint64_t direction);
  // Total crossings charged through this SecureWorld (always counted, so
  // benches and tests can assert amortization without arming telemetry).
  uint64_t world_switches() const { return world_switches_; }

  // ---- ReplayContext ----
  Result<uint32_t> RegRead32(uint16_t device, uint64_t offset) override;
  Status RegWrite32(uint16_t device, uint64_t offset, uint32_t value) override;
  // Block PIO: permission/range checks and the window walk are resolved once,
  // then each word is charged and routed through the MMIO window individually,
  // so interposed fault proxies and telemetry see the same per-word access
  // stream as a loop of RegRead32/RegWrite32 calls.
  Status RegReadBlock32(uint16_t device, uint64_t offset, uint32_t* out,
                        size_t words) override;
  Status RegWriteBlock32(uint16_t device, uint64_t offset, const uint32_t* values,
                         size_t words) override;
  Result<uint32_t> MemRead32(PhysAddr addr) override;
  Status MemWrite32(PhysAddr addr, uint32_t value) override;
  Status MemCopyIn(PhysAddr dst, const uint8_t* src, size_t len) override;
  Status MemCopyOut(uint8_t* dst, PhysAddr src, size_t len) override;
  Result<PhysAddr> DmaAlloc(uint64_t size) override;
  void DmaReleaseAll() override;
  Result<uint32_t> RandomU32() override;
  uint64_t TimestampUs() override;
  Status WaitForIrq(int line, uint64_t timeout_us) override;
  void DelayUs(uint64_t us) override;
  Status SoftResetDevice(uint16_t device) override;
  bool AddressAllowed(PhysAddr addr, size_t len) override;
  void ChargeReplayOverheadNs(uint64_t ns) override;

 private:
  void ChargeNs(uint64_t ns);

  Machine* machine_;
  CmaPool pool_;
  std::set<uint16_t> mapped_;
  uint64_t rng_state_;
  uint64_t ns_accum_ = 0;
  uint64_t world_switches_ = 0;
};

// Base class for trustlets: small in-TEE programs that consume driverlets.
class Trustlet {
 public:
  virtual ~Trustlet() = default;
  virtual std::string_view name() const = 0;
  virtual Status Run(SecureWorld* tee) = 0;
};

}  // namespace dlt

#endif  // SRC_TEE_SECURE_WORLD_H_
