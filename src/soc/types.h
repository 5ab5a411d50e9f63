// Basic types shared across the driverlets codebase.
#ifndef SRC_SOC_TYPES_H_
#define SRC_SOC_TYPES_H_

#include <cstddef>
#include <cstdint>

namespace dlt {

// Physical address on the simulated SoC bus.
using PhysAddr = uint64_t;

// TrustZone security world of a bus master.
enum class World : uint8_t {
  kNormal = 0,
  kSecure = 1,
};

// True when [addr, addr + len) lies inside [base, base + size). Written without
// addr + len or base + size, which wrap past 2^64 and would admit an address
// just below base or a length that loops around the address space.
inline constexpr bool RangeWithin(PhysAddr addr, uint64_t len, PhysAddr base, uint64_t size) {
  return addr >= base && len <= size && addr - base <= size - len;
}

// Source location attached to recorded events so replay failures can report the
// originating line in the gold driver (paper §4.1, §5 "reporting their recording sites").
struct SourceLoc {
  const char* file = "";
  int line = 0;
};

#define DLT_HERE (::dlt::SourceLoc{__FILE__, __LINE__})

}  // namespace dlt

#endif  // SRC_SOC_TYPES_H_
