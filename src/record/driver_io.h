// DriverIo: the interposition boundary where driver/device interactions are
// observable — exactly the three interfaces the paper records (§4.1):
//   Program <-> Driver   (entry arguments, data buffers)
//   Env     <-> Driver   (DMA allocation, random bytes, timekeeping)
//   Device  <-> Driver   (registers, shared-memory descriptors, interrupts)
//
// Gold drivers perform ALL such traffic through this facade, program buffers
// included: a driver never reads a buffer it handed to a copy except through
// these calls, so an implementation may leave a copy-out for later
// (CopyFromDmaOrDefer). Two implementations exist:
//   kern::PassthroughIo   — native execution (baselines), zero recording cost;
//   record::RecordSession — logs raw events + taints + path conditions (§4);
//   (the replayer does not use DriverIo — it interprets template events, §5).
#ifndef SRC_RECORD_DRIVER_IO_H_
#define SRC_RECORD_DRIVER_IO_H_

#include <cstdint>

#include "src/soc/address_space.h"
#include "src/soc/status.h"
#include "src/soc/types.h"
#include "src/sym/constraint.h"
#include "src/record/tvalue.h"

namespace dlt {

class DriverIo {
 public:
  virtual ~DriverIo() = default;

  // ---- Device <-> Driver: registers ----
  virtual TValue RegRead32(uint16_t device, uint64_t offset, SourceLoc loc) = 0;
  virtual void RegWrite32(uint16_t device, uint64_t offset, const TValue& value,
                          SourceLoc loc) = 0;

  // ---- Device <-> Driver: shared memory (descriptors, message queues) ----
  // Addresses are TValues so descriptor topology stays symbolic (paper Fig. 4).
  virtual TValue ShmRead32(const TValue& addr, SourceLoc loc) = 0;
  virtual void ShmWrite32(const TValue& addr, const TValue& value, SourceLoc loc) = 0;

  // ---- Device <-> Driver: interrupts ----
  virtual Status WaitForIrq(int line, uint64_t timeout_us, SourceLoc loc) = 0;

  // ---- Meta: polling loops (the readl_poll_timeout analogue) ----
  // Spins until (*reg & mask) == want (negate=false) or != want (negate=true).
  virtual Status PollReg32(uint16_t device, uint64_t offset, uint32_t mask, uint32_t want,
                           bool negate, uint64_t timeout_us, uint64_t interval_us,
                           SourceLoc loc) = 0;
  virtual void DelayUs(uint64_t us, SourceLoc loc) = 0;

  // ---- Env <-> Driver ----
  // Returns the physical address of |size| bytes of DMA-able contiguous memory.
  virtual TValue DmaAlloc(const TValue& size, SourceLoc loc) = 0;
  // Releases every allocation of the current request. Not a recorded event: the
  // replayer frees a template's allocations when its execution ends (§5).
  virtual void DmaReleaseAll(SourceLoc loc) = 0;
  virtual TValue GetRandomU32(SourceLoc loc) = 0;
  virtual TValue GetTimestampUs(SourceLoc loc) = 0;

  // ---- Program <-> Driver: IO data plane ----
  // Bulk data moves between a program buffer (registered with the session) and
  // DMA memory / a device PIO data port. Data content is not state-changing
  // (§3.1); offsets/lengths may be symbolic.
  virtual void CopyToDma(const TValue& dst, const uint8_t* src_base, const TValue& src_off,
                         const TValue& len, SourceLoc loc) = 0;
  virtual void CopyFromDma(uint8_t* dst_base, const TValue& dst_off, const TValue& src,
                           const TValue& len, SourceLoc loc) = 0;
  virtual void PioIn(uint16_t device, uint64_t offset, uint8_t* dst_base, const TValue& dst_off,
                     const TValue& len, SourceLoc loc) = 0;
  virtual void PioOut(uint16_t device, uint64_t offset, const uint8_t* src_base,
                      const TValue& src_off, const TValue& len, SourceLoc loc) = 0;

  // CopyFromDma that may leave the copy for later. When the source bytes are
  // a device fill that has not landed yet, an implementation may make the
  // copy's checks, write nothing and return the fill's bytes: writing them
  // to the destination at any later time gives what the copy would give
  // now. Otherwise the copy happens now and the result holds no generator;
  // an error means nothing was written. The default copies at once.
  virtual Result<AddressSpace::FillBytes> CopyFromDmaOrDefer(uint8_t* dst_base,
                                                             const TValue& dst_off,
                                                             const TValue& src, const TValue& len,
                                                             SourceLoc loc) {
    CopyFromDma(dst_base, dst_off, src, len, loc);
    return AddressSpace::FillBytes{};
  }

  // ---- Control-flow observation ----
  // Drivers branch on tainted values through Branch(); the recorder logs the
  // (possibly negated) comparison as a path condition — the concolic-execution
  // step that discovers constraints and state-changing inputs (§4.2, Challenge I).
  virtual bool Branch(const TValue& lhs, Cmp cmp, const TValue& rhs, SourceLoc loc) = 0;

  // Virtual time, for drivers that pace themselves (e.g. periodic bus tuning).
  virtual uint64_t NowUs() = 0;
};

}  // namespace dlt

#endif  // SRC_RECORD_DRIVER_IO_H_
