// PassthroughIo: the native (non-recording) DriverIo. Gold drivers run through
// it for baseline benchmarks and for the underlying IO of record sessions.
// Performs real accesses on the simulated machine, charges bus/IRQ/software
// latencies against the virtual clock, and pumps the discrete-event queue while
// waiting for interrupts.
#ifndef SRC_KERN_PASSTHROUGH_IO_H_
#define SRC_KERN_PASSTHROUGH_IO_H_

#include "src/record/driver_io.h"
#include "src/soc/cma_pool.h"
#include "src/soc/machine.h"

namespace dlt {

class PassthroughIo : public DriverIo {
 public:
  // |world| is the bus-master security world for CPU accesses: kNormal for the
  // Linux-side driver, kSecure when the TEE exercises a driver directly.
  PassthroughIo(Machine* machine, CmaPool* pool, World world, uint64_t rng_seed = 0x5eed);

  TValue RegRead32(uint16_t device, uint64_t offset, SourceLoc loc) override;
  void RegWrite32(uint16_t device, uint64_t offset, const TValue& value, SourceLoc loc) override;
  TValue ShmRead32(const TValue& addr, SourceLoc loc) override;
  void ShmWrite32(const TValue& addr, const TValue& value, SourceLoc loc) override;
  Status WaitForIrq(int line, uint64_t timeout_us, SourceLoc loc) override;
  Status PollReg32(uint16_t device, uint64_t offset, uint32_t mask, uint32_t want, bool negate,
                   uint64_t timeout_us, uint64_t interval_us, SourceLoc loc) override;
  void DelayUs(uint64_t us, SourceLoc loc) override;
  TValue DmaAlloc(const TValue& size, SourceLoc loc) override;
  void DmaReleaseAll(SourceLoc loc) override;
  TValue GetRandomU32(SourceLoc loc) override;
  TValue GetTimestampUs(SourceLoc loc) override;
  void CopyToDma(const TValue& dst, const uint8_t* src_base, const TValue& src_off,
                 const TValue& len, SourceLoc loc) override;
  void CopyFromDma(uint8_t* dst_base, const TValue& dst_off, const TValue& src, const TValue& len,
                   SourceLoc loc) override;
  // Defers exactly the copies AddressSpace::ReadBytesOrDefer defers: those
  // whose source lies wholly inside one pending DmaFill piece.
  Result<AddressSpace::FillBytes> CopyFromDmaOrDefer(uint8_t* dst_base, const TValue& dst_off,
                                                     const TValue& src, const TValue& len,
                                                     SourceLoc loc) override;
  void PioIn(uint16_t device, uint64_t offset, uint8_t* dst_base, const TValue& dst_off,
             const TValue& len, SourceLoc loc) override;
  void PioOut(uint16_t device, uint64_t offset, const uint8_t* src_base, const TValue& src_off,
              const TValue& len, SourceLoc loc) override;
  bool Branch(const TValue& lhs, Cmp cmp, const TValue& rhs, SourceLoc loc) override;
  uint64_t NowUs() override;

  void ReleaseDma() { pool_->ReleaseAll(); }
  CmaPool* pool() { return pool_; }
  Machine* machine() { return machine_; }

 private:
  void ChargeNs(uint64_t ns);
  Result<PhysAddr> DeviceAddr(uint16_t device, uint64_t offset) const;

  Machine* machine_;
  CmaPool* pool_;
  World world_;
  uint64_t rng_state_;
  uint64_t ns_accum_ = 0;
};

}  // namespace dlt

#endif  // SRC_KERN_PASSTHROUGH_IO_H_
