#include "src/dev/mmc/block_medium.h"

#include <cstring>

namespace dlt {

Status BlockMedium::ReadSector(uint64_t lba, uint8_t* out) {
  if (!present_) {
    return Status::kIoError;
  }
  if (lba >= num_sectors_) {
    return Status::kOutOfRange;
  }
  auto it = data_.find(lba);
  if (it == data_.end()) {
    std::memset(out, 0, kSectorSize);
  } else {
    std::memcpy(out, it->second.data(), kSectorSize);
  }
  return Status::kOk;
}

Status BlockMedium::WriteSector(uint64_t lba, const uint8_t* data) {
  if (!present_) {
    return Status::kIoError;
  }
  if (lba >= num_sectors_) {
    return Status::kOutOfRange;
  }
  Sector& s = data_[lba];
  std::memcpy(s.data(), data, kSectorSize);
  ++sectors_written_;
  return Status::kOk;
}

Status BlockMedium::Read(uint64_t lba, uint32_t count, uint8_t* out) {
  for (uint32_t i = 0; i < count; ++i) {
    DLT_RETURN_IF_ERROR(ReadSector(lba + i, out + static_cast<size_t>(i) * kSectorSize));
  }
  return Status::kOk;
}

Status BlockMedium::Write(uint64_t lba, uint32_t count, const uint8_t* data) {
  for (uint32_t i = 0; i < count; ++i) {
    DLT_RETURN_IF_ERROR(WriteSector(lba + i, data + static_cast<size_t>(i) * kSectorSize));
  }
  return Status::kOk;
}

}  // namespace dlt
