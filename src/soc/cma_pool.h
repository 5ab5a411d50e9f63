// Contiguous-memory allocator carving a fixed physical window: the normal-world
// DMA pool and (separately instantiated) the TEE's reserved pool — the paper
// reserves 3 MB of TEE RAM and uses the stock OPTEE allocator (§7.3.1).
#ifndef SRC_SOC_CMA_POOL_H_
#define SRC_SOC_CMA_POOL_H_

#include "src/soc/status.h"
#include "src/soc/types.h"

namespace dlt {

class CmaPool {
 public:
  // Allocations are aligned to |align| (16 KB default: the VCHIQ queue base is
  // exchanged as addr & ~0x3fff, which must round-trip losslessly).
  CmaPool(PhysAddr base, uint64_t size, uint64_t align = 0x4000)
      : base_(base), size_(size), align_(align), next_(base) {}

  Result<PhysAddr> Alloc(uint64_t size);
  void ReleaseAll() { next_ = base_; }

  PhysAddr base() const { return base_; }
  uint64_t capacity() const { return size_; }
  uint64_t used() const { return next_ - base_; }
  bool Contains(PhysAddr addr, uint64_t len) const { return RangeWithin(addr, len, base_, size_); }

 private:
  PhysAddr base_;
  uint64_t size_;
  uint64_t align_;
  PhysAddr next_;
};

inline Result<PhysAddr> CmaPool::Alloc(uint64_t size) {
  PhysAddr aligned = (next_ + align_ - 1) & ~(align_ - 1);
  if (size == 0 || !RangeWithin(aligned, size, base_, size_)) {
    return Status::kNoMemory;
  }
  next_ = aligned + size;
  return aligned;
}

}  // namespace dlt

#endif  // SRC_SOC_CMA_POOL_H_
