// The SoC physical address space: RAM windows plus MMIO regions routed to devices.
// CPU accesses carry a World and are checked against the TZASC; bus-master (device
// DMA) accesses use RamPtr/DmaRead/DmaWrite/DmaFill and bypass world checks,
// matching the paper's model where whole device instances are assigned to the TEE.
#ifndef SRC_SOC_ADDRESS_SPACE_H_
#define SRC_SOC_ADDRESS_SPACE_H_

#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "src/soc/device.h"
#include "src/soc/status.h"
#include "src/soc/tzasc.h"
#include "src/soc/types.h"

namespace dlt {

class SimClock;

// Fault-injection hook over bus-master RAM accesses (src/fault's
// FaultInjector). OnDmaRead runs after the copy with the bytes the device is
// about to consume (corrupting them models a misread on the bus); OnDmaWrite
// runs after the write with a pointer into backing RAM (corrupting it models a
// bad write landing in memory). Covers devices that master the bus directly
// (dwc2, vc4) — the system DMA engine has its own DmaFaultHook.
class BusFaultHook {
 public:
  virtual ~BusFaultHook() = default;
  virtual void OnDmaRead(PhysAddr a, uint8_t* data, size_t n) = 0;
  virtual void OnDmaWrite(PhysAddr a, uint8_t* data, size_t n) = 0;
};

class AddressSpace {
 private:
  struct FreeDeleter {
    void operator()(uint8_t* p) const { std::free(p); }
  };
  struct RamWindow {
    PhysAddr base;
    uint64_t size;
    // calloc'ed: the allocator hands out zero pages lazily, so a window costs
    // nothing until a page is first touched.
    std::unique_ptr<uint8_t[], FreeDeleter> bytes;
  };
  struct MmioWindow {
    PhysAddr base;
    uint64_t size;
    MmioDevice* dev;
  };

 public:
  explicit AddressSpace(Tzasc* tzasc) : tzasc_(tzasc) {}
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // Optional: telemetry MMIO counters cache pointers on first use; the clock
  // is unused today but keeps the binding symmetric with InterruptController.
  void BindClock(const SimClock* clock) { clock_ = clock; }

  Status AddRam(PhysAddr base, uint64_t size);
  Status MapMmio(PhysAddr base, uint64_t size, MmioDevice* dev);

  // Fault injection: reroutes the MMIO window currently routed to |from| so it
  // routes to |to| instead (a proxy device wrapping |from|). kNotFound when no
  // window routes to |from|. Machine's device registry is untouched, so
  // SoftResetDevice still reaches the real device; calling again with the
  // arguments swapped restores the original routing.
  Status InterposeMmio(MmioDevice* from, MmioDevice* to);

  // Fault injection: nullptr uninstalls.
  void set_bus_fault_hook(BusFaultHook* hook) { bus_fault_hook_ = hook; }

  // CPU accesses (TZASC-checked). MMIO accesses must be 32-bit and aligned.
  Result<uint32_t> Read32(World w, PhysAddr a);
  Status Write32(World w, PhysAddr a, uint32_t v);
  Status ReadBytes(World w, PhysAddr a, void* dst, size_t n);
  Status WriteBytes(World w, PhysAddr a, const void* src, size_t n);

  // Bus-master access to RAM. Returns nullptr when [a, a+size) is not fully
  // RAM-backed. The returned pointer stays valid for the AddressSpace lifetime.
  uint8_t* RamPtr(PhysAddr a, uint64_t size);

  // Bus-master byte copies (used by the DMA engine). Fail on non-RAM targets.
  Status DmaRead(PhysAddr a, void* dst, size_t n);
  Status DmaWrite(PhysAddr a, const void* src, size_t n);

  // The one bus-master write path: |fill(dst)| writes the n bytes at |a| in
  // place, then the bus fault hook sees them. DmaWrite is DmaFill with a
  // memcpy; a device that generates its data writes it here without a
  // staging buffer.
  template <typename Fill>
  Status DmaFill(PhysAddr a, size_t n, Fill&& fill) {
    RamWindow* ram = RamAt(a, n);
    if (ram == nullptr) {
      return Status::kOutOfRange;
    }
    uint8_t* dst = ram->bytes.get() + (a - ram->base);
    fill(dst);
    if (bus_fault_hook_ != nullptr) {
      bus_fault_hook_->OnDmaWrite(a, dst, n);
    }
    return Status::kOk;
  }

  // Returns the device mapped at |a| (if any) and its register offset.
  MmioDevice* DeviceAt(PhysAddr a, uint64_t* offset_out) const;

  // Resolve-once handle for repeated CPU accesses to one MMIO register (PIO
  // block transfers): the TZASC check, window walk and alignment check happen
  // once in MmioAt; each Read/Write still counts as a full MMIO access and is
  // routed through the window's current device, so fault-injection proxies
  // interposed on the window keep seeing every word.
  class MmioCursor {
   public:
    uint32_t Read();
    void Write(uint32_t v);

   private:
    friend class AddressSpace;
    MmioCursor(MmioWindow* win, uint64_t off) : win_(win), off_(off) {}
    MmioWindow* win_;
    uint64_t off_;
  };

  // kPermissionDenied on a TZASC refusal, kInvalidArg on misalignment,
  // kOutOfRange when no MMIO window covers |a|. The cursor borrows the window
  // slot; it must not outlive the AddressSpace or span MapMmio calls.
  Result<MmioCursor> MmioAt(World w, PhysAddr a);

  Tzasc* tzasc() const { return tzasc_; }

 private:
  RamWindow* RamAt(PhysAddr a, uint64_t size);
  bool Overlaps(PhysAddr base, uint64_t size) const;

  Tzasc* tzasc_;
  const SimClock* clock_ = nullptr;
  std::vector<RamWindow> ram_;
  std::vector<MmioWindow> mmio_;
  BusFaultHook* bus_fault_hook_ = nullptr;
};

}  // namespace dlt

#endif  // SRC_SOC_ADDRESS_SPACE_H_
