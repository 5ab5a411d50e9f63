#include "src/soc/tzasc.h"

namespace dlt {

void Tzasc::AssignRegion(PhysAddr base, uint64_t size, World owner) {
  regions_.push_back(Region{base, size, owner});
}

World Tzasc::OwnerOf(PhysAddr addr) const {
  // Scan back-to-front so later assignments override earlier ones.
  for (auto it = regions_.rbegin(); it != regions_.rend(); ++it) {
    if (addr >= it->base && addr < it->base + it->size) {
      return it->owner;
    }
  }
  return World::kNormal;
}

bool Tzasc::AllowsRange(World accessor, PhysAddr addr, uint64_t size) const {
  if (accessor == World::kSecure || size == 0) {
    return true;
  }
  // Ownership changes only at region edges, so the range is all normal when
  // |addr| and every edge inside the range are. Offsets from |addr| keep the
  // test free of addr + size, which may wrap.
  bool ok = OwnerOf(addr) == World::kNormal;
  for (const Region& r : regions_) {
    for (PhysAddr edge : {r.base, r.base + r.size}) {
      if (edge > addr && edge - addr < size && OwnerOf(edge) != World::kNormal) {
        ok = false;
      }
    }
  }
  if (!ok) {
    NoteDenied();
  }
  return ok;
}

}  // namespace dlt
