// Sparse block storage backing the SD card and USB flash models. Capacity can
// be tens of millions of 512-byte sectors (the paper's media: 31M MMC sectors,
// 15M USB sectors) without committing memory: only written sectors are stored.
#ifndef SRC_DEV_MMC_BLOCK_MEDIUM_H_
#define SRC_DEV_MMC_BLOCK_MEDIUM_H_

#include <array>
#include <cstdint>
#include <unordered_map>

#include "src/soc/status.h"

namespace dlt {

class BlockMedium {
 public:
  static constexpr size_t kSectorSize = 512;

  explicit BlockMedium(uint64_t num_sectors) : num_sectors_(num_sectors) {}

  uint64_t num_sectors() const { return num_sectors_; }

  Status ReadSector(uint64_t lba, uint8_t* out);
  Status WriteSector(uint64_t lba, const uint8_t* data);
  Status Read(uint64_t lba, uint32_t count, uint8_t* out);
  Status Write(uint64_t lba, uint32_t count, const uint8_t* data);

  // Fault injection: an absent medium fails all IO (paper §7.2, unplugging the
  // storage medium amid a replay run).
  void set_present(bool present) { present_ = present; }
  bool present() const { return present_; }

  uint64_t sectors_written() const { return sectors_written_; }

 private:
  using Sector = std::array<uint8_t, kSectorSize>;

  uint64_t num_sectors_;
  bool present_ = true;
  std::unordered_map<uint64_t, Sector> data_;
  uint64_t sectors_written_ = 0;
};

}  // namespace dlt

#endif  // SRC_DEV_MMC_BLOCK_MEDIUM_H_
