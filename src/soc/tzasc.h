// TrustZone Address Space Controller model. The paper's testbed (RPi3) lacks a real
// TZASC; the authors patched ARM Trusted Firmware to assign whole device instances to
// the TEE (§7.3.1). We model the same policy: regions (RAM windows and device MMIO
// ranges) are assigned to a world; normal-world accesses to secure regions fault.
#ifndef SRC_SOC_TZASC_H_
#define SRC_SOC_TZASC_H_

#include <vector>

#include "src/soc/types.h"

namespace dlt {

class Tzasc {
 public:
  struct Region {
    PhysAddr base;
    uint64_t size;
    World owner;
  };

  // Later assignments take precedence over earlier overlapping ones.
  void AssignRegion(PhysAddr base, uint64_t size, World owner);

  // Unassigned addresses default to the normal world.
  World OwnerOf(PhysAddr addr) const;

  // Whether |accessor| may touch every byte of [addr, addr + size): secure
  // masters may access everything, normal masters only normal regions. An
  // empty range is allowed. A refusal counts once in denied_count().
  bool AllowsRange(World accessor, PhysAddr addr, uint64_t size) const;

  const std::vector<Region>& regions() const { return regions_; }
  uint64_t denied_count() const { return denied_; }
  void NoteDenied() const { ++denied_; }

 private:
  std::vector<Region> regions_;
  mutable uint64_t denied_ = 0;
};

}  // namespace dlt

#endif  // SRC_SOC_TZASC_H_
