// The SoC physical address space: RAM windows plus MMIO regions routed to devices.
// CPU accesses carry a World and are checked against the TZASC; bus-master (device
// DMA) accesses use RamPtr/DmaRead/DmaWrite/DmaFill and bypass world checks,
// matching the paper's model where whole device instances are assigned to the TEE.
// A DmaFill lands in RAM lazily: a read that lies inside it is generated straight
// into the reader's buffer, so a device that generates its data writes each byte
// once, into the buffer that consumes it, and bytes nobody reads are never
// written.
#ifndef SRC_SOC_ADDRESS_SPACE_H_
#define SRC_SOC_ADDRESS_SPACE_H_

#include <cstdlib>
#include <cstring>
#include <functional>
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
  // RAM-backed. The pointer stays valid for the AddressSpace lifetime, but its
  // bytes are current only as of the call: the call lands the pending DmaFill
  // pieces that overlap the range, and a later DmaFill there lands lazily, so
  // take the pointer again after a bus-master write and before writing
  // through it.
  uint8_t* RamPtr(PhysAddr a, uint64_t size);

  // Bus-master byte copies (used by the DMA engine). Fail on non-RAM targets.
  // DmaWrite copies from a caller buffer that may not outlive the call, so it
  // lands at once; the bus fault hook sees what was read or written.
  Status DmaRead(PhysAddr a, void* dst, size_t n);
  Status DmaWrite(PhysAddr a, const void* src, size_t n);

  // Writes bytes [off, off+len) of a bus-master write to |dst|.
  using FillGen = std::function<void(size_t off, uint8_t* dst, size_t len)>;

  // A bus-master write of n generated bytes at |a|, landed lazily. The fill
  // stays pending as one piece: a ReadBytes (after its TZASC check) or DmaRead
  // that lies wholly inside one pending piece calls that piece's |gen|
  // straight into the caller's buffer, and any other RAM access (Read32,
  // Write32, WriteBytes, DmaWrite, RamPtr) first writes out, whole, each piece
  // it overlaps. A newer fill trims the pieces it overlaps instead: their
  // covered bytes are dropped unwritten, and the bytes below and above it stay
  // pending as pieces that keep their generator offsets, so a frame that
  // follows a larger one at the same address never writes the older tail. At
  // most kMaxPendingPieces pieces are pending; past that the oldest lands.
  // With a bus fault hook installed the fill is written at once and
  // OnDmaWrite sees it whole. kOutOfRange when [a, a+n) is not RAM: nothing is
  // written or recorded, and the pending pieces stay as they were.
  Status DmaFill(PhysAddr a, size_t n, FillGen gen);

  // A constant, not a setting: the VC4 lands frames of three sizes at one
  // address, which leaves at most two pieces pending.
  static constexpr size_t kMaxPendingPieces = 4;

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
  // RAM bytes [a, a+n) not yet written out: bytes [off, off+n) of one
  // DmaFill's generator. Never empty.
  struct PendingPiece {
    PhysAddr a = 0;
    size_t n = 0;
    size_t off = 0;
    uint8_t* ram = nullptr;  // where byte |a| lands
    FillGen gen;

    bool Overlaps(PhysAddr b, uint64_t len) const { return len > 0 && b < a + n && a < b + len; }
    void Land() const { gen(off, ram, n); }
  };

  RamWindow* RamAt(PhysAddr a, uint64_t size);
  bool Overlaps(PhysAddr base, uint64_t size) const;
  // The RAM bytes at |a| in |ram|, current for an access of n bytes: lands
  // first every pending piece the access overlaps.
  uint8_t* Landed(RamWindow* ram, PhysAddr a, uint64_t n);
  // Copies RAM bytes [a, a+n) to |dst|, generating them there when they lie
  // wholly inside one pending piece.
  void CopyOut(RamWindow* ram, PhysAddr a, void* dst, size_t n);
  // Drops the pending bytes in [a, a+n), splitting the pieces they belong to.
  void TrimPending(PhysAddr a, uint64_t n);

  Tzasc* tzasc_;
  const SimClock* clock_ = nullptr;
  std::vector<RamWindow> ram_;
  std::vector<MmioWindow> mmio_;
  BusFaultHook* bus_fault_hook_ = nullptr;
  std::vector<PendingPiece> pending_;  // disjoint, oldest first
};

}  // namespace dlt

#endif  // SRC_SOC_ADDRESS_SPACE_H_
