#include "src/dev/usb/usb_mass_storage.h"

#include <algorithm>

#include <cstring>

#include "src/soc/log.h"

namespace dlt {

namespace {

uint32_t Be32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

uint16_t Be16(const uint8_t* p) {
  return static_cast<uint16_t>((static_cast<uint16_t>(p[0]) << 8) | p[1]);
}

void PutBe32(uint32_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

}  // namespace

Status UsbMassStorage::ControlRequest(const UsbSetup& setup, const uint8_t* data_out,
                                      std::vector<uint8_t>* data_in) {
  (void)data_out;
  switch (setup.b_request) {
    case 0x05:  // SET_ADDRESS
      address_ = static_cast<uint8_t>(setup.w_value);
      return Status::kOk;
    case 0x09:  // SET_CONFIGURATION
      configuration_ = static_cast<uint8_t>(setup.w_value);
      return Status::kOk;
    case 0x06: {  // GET_DESCRIPTOR
      if (data_in == nullptr) {
        return Status::kOk;
      }
      uint8_t type = static_cast<uint8_t>(setup.w_value >> 8);
      if (type == 1) {  // device descriptor: VID 0x8644 PID 0x8003 (paper Table 2)
        *data_in = {18, 1, 0, 2, 0, 0, 0, 64, 0x44, 0x86, 0x03, 0x80, 0, 1, 1, 2, 3, 1};
      } else if (type == 2) {  // configuration descriptor (truncated, BOT interface)
        *data_in = {9, 2, 32, 0, 1, 1, 0, 0x80, 50, 9, 4, 0, 0, 2, 8, 6, 0x50, 0};
      }
      return Status::kOk;
    }
    case 0xff:  // Bulk-Only Mass Storage Reset
      state_ = BotState::kAwaitCbw;
      return Status::kOk;
    case 0xfe:  // GET_MAX_LUN
      if (data_in != nullptr) {
        *data_in = {0};
      }
      return Status::kOk;
    default:
      return Status::kUnsupported;
  }
}

void UsbMassStorage::QueueCsw(uint8_t status) {
  csw_.assign(kCswLength, 0);
  uint32_t sig = kCswSignature;
  std::memcpy(csw_.data(), &sig, 4);
  std::memcpy(csw_.data() + 4, &cbw_.tag, 4);
  uint32_t residue = 0;
  std::memcpy(csw_.data() + 8, &residue, 4);
  csw_[12] = status;
}

Status UsbMassStorage::ExecuteScsi(uint64_t* extra_us) {
  uint8_t op = cbw_.cb[0];
  switch (op) {
    case kScsiTestUnitReady:
      if (!medium_->present()) {
        sense_key_ = 0x02;  // NOT READY
        QueueCsw(1);
      } else {
        QueueCsw(0);
      }
      state_ = BotState::kAwaitCswRead;
      return Status::kOk;
    case kScsiInquiry: {
      data_in_.assign(36, 0);
      data_in_[1] = 0x80;  // removable
      data_in_[4] = 31;    // additional length
      std::memcpy(data_in_.data() + 8, "Intenso ", 8);
      std::memcpy(data_in_.data() + 16, "Micro Line      ", 16);
      std::memcpy(data_in_.data() + 32, "1.00", 4);
      data_in_pos_ = 0;
      QueueCsw(0);
      state_ = BotState::kDataIn;
      return Status::kOk;
    }
    case kScsiRequestSense: {
      data_in_.assign(18, 0);
      data_in_[0] = 0x70;
      data_in_[2] = sense_key_;
      data_in_[7] = 10;
      sense_key_ = 0;
      data_in_pos_ = 0;
      QueueCsw(0);
      state_ = BotState::kDataIn;
      return Status::kOk;
    }
    case kScsiModeSense6: {
      data_in_.assign(4, 0);
      data_in_[0] = 3;
      data_in_pos_ = 0;
      QueueCsw(0);
      state_ = BotState::kDataIn;
      return Status::kOk;
    }
    case kScsiReadCapacity10: {
      data_in_.assign(8, 0);
      uint32_t num_lba = static_cast<uint32_t>(medium_->num_sectors() / kSectorsPerLba);
      PutBe32(num_lba - 1, data_in_.data());
      PutBe32(kUsbLogicalBlock, data_in_.data() + 4);
      data_in_pos_ = 0;
      QueueCsw(0);
      state_ = BotState::kDataIn;
      return Status::kOk;
    }
    case kScsiRead10: {
      uint32_t lba = Be32(cbw_.cb + 2);
      uint16_t count = Be16(cbw_.cb + 7);
      data_in_.assign(static_cast<size_t>(count) * kUsbLogicalBlock, 0);
      Status s = medium_->Read(static_cast<uint64_t>(lba) * kSectorsPerLba,
                               count * kSectorsPerLba, data_in_.data());
      *extra_us = static_cast<uint64_t>(count) * kSectorsPerLba * lat_->usb_flash_read_block_us;
      if (!Ok(s)) {
        sense_key_ = 0x03;  // MEDIUM ERROR
        data_in_.clear();
        QueueCsw(1);
        state_ = BotState::kAwaitCswRead;
        return Status::kOk;
      }
      data_in_pos_ = 0;
      QueueCsw(0);
      state_ = BotState::kDataIn;
      return Status::kOk;
    }
    case kScsiWrite10: {
      data_out_.clear();
      if (cbw_.data_len == 0) {
        QueueCsw(0);
        state_ = BotState::kAwaitCswRead;
      } else {
        state_ = BotState::kDataOut;
      }
      return Status::kOk;
    }
    default:
      sense_key_ = 0x05;  // ILLEGAL REQUEST
      QueueCsw(1);
      state_ = BotState::kAwaitCswRead;
      return Status::kOk;
  }
}

Status UsbMassStorage::BulkOut(const uint8_t* data, size_t len, uint64_t* extra_us) {
  *extra_us = 0;
  if (!connected()) {
    return Status::kIoError;
  }
  if (state_ == BotState::kAwaitCbw) {
    if (len < kCbwLength) {
      return Status::kIoError;
    }
    uint32_t sig = 0;
    std::memcpy(&sig, data, 4);
    if (sig != kCbwSignature) {
      return Status::kIoError;
    }
    std::memcpy(&cbw_.tag, data + 4, 4);
    std::memcpy(&cbw_.data_len, data + 8, 4);
    cbw_.dir_in = (data[12] & 0x80) != 0;
    std::memcpy(cbw_.cb, data + 15, 16);
    return ExecuteScsi(extra_us);
  }
  if (state_ == BotState::kDataOut) {
    data_out_.insert(data_out_.end(), data, data + len);
    if (data_out_.size() >= cbw_.data_len) {
      uint32_t lba = Be32(cbw_.cb + 2);
      uint16_t count = Be16(cbw_.cb + 7);
      Status s = medium_->Write(static_cast<uint64_t>(lba) * kSectorsPerLba,
                                count * kSectorsPerLba, data_out_.data());
      *extra_us = static_cast<uint64_t>(count) * kSectorsPerLba * lat_->usb_flash_write_block_us;
      QueueCsw(Ok(s) ? 0 : 1);
      if (!Ok(s)) {
        sense_key_ = 0x03;
      }
      state_ = BotState::kAwaitCswRead;
    }
    return Status::kOk;
  }
  return Status::kIoError;
}

Status UsbMassStorage::BulkIn(size_t max_len, std::vector<uint8_t>* data, uint64_t* extra_us) {
  *extra_us = 0;
  if (!connected()) {
    return Status::kIoError;
  }
  if (state_ == BotState::kDataIn) {
    size_t remaining = data_in_.size() - data_in_pos_;
    size_t take = std::min(remaining, max_len);
    data->assign(data_in_.begin() + static_cast<long>(data_in_pos_),
                 data_in_.begin() + static_cast<long>(data_in_pos_ + take));
    data_in_pos_ += take;
    if (data_in_pos_ >= data_in_.size()) {
      state_ = BotState::kAwaitCswRead;
    }
    return Status::kOk;
  }
  if (state_ == BotState::kAwaitCswRead) {
    if (max_len < kCswLength) {
      return Status::kIoError;
    }
    *data = csw_;
    state_ = BotState::kAwaitCbw;
    return Status::kOk;
  }
  return Status::kIoError;
}

void UsbMassStorage::Reset() {
  // Bus reset to the post-enumeration clean slate: configured and awaiting a CBW.
  state_ = BotState::kAwaitCbw;
  data_in_.clear();
  data_out_.clear();
  csw_.clear();
  sense_key_ = 0;
  address_ = 1;
  configuration_ = 1;
}

}  // namespace dlt
