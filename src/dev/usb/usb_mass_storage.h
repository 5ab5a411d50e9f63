// USB mass-storage device model: Bulk-Only Transport (CBW/CSW) carrying SCSI
// commands over a 4 KB-logical-block flash medium — mirrors the paper's Intenso
// Micro Line stick (Table 2) including the 4 KB LBA that forces the driver's
// read-modify-write path for sub-LBA writes (§6.2.3).
#ifndef SRC_DEV_USB_USB_MASS_STORAGE_H_
#define SRC_DEV_USB_USB_MASS_STORAGE_H_

#include <deque>

#include "src/dev/mmc/block_medium.h"
#include "src/dev/usb/usb_device_model.h"
#include "src/soc/latency_model.h"

namespace dlt {

inline constexpr uint32_t kCbwSignature = 0x43425355;  // 'USBC'
inline constexpr uint32_t kCswSignature = 0x53425355;  // 'USBS'
inline constexpr size_t kCbwLength = 31;
inline constexpr size_t kCswLength = 13;
inline constexpr uint32_t kUsbLogicalBlock = 4096;     // bytes per device LBA
inline constexpr uint32_t kSectorsPerLba = kUsbLogicalBlock / BlockMedium::kSectorSize;

// SCSI opcodes the device implements.
inline constexpr uint8_t kScsiTestUnitReady = 0x00;
inline constexpr uint8_t kScsiRequestSense = 0x03;
inline constexpr uint8_t kScsiInquiry = 0x12;
inline constexpr uint8_t kScsiModeSense6 = 0x1a;
inline constexpr uint8_t kScsiReadCapacity10 = 0x25;
inline constexpr uint8_t kScsiRead10 = 0x28;
inline constexpr uint8_t kScsiWrite10 = 0x2a;

class UsbMassStorage : public UsbDeviceModel {
 public:
  UsbMassStorage(BlockMedium* medium, const LatencyModel* lat)
      : medium_(medium), lat_(lat) {}

  bool connected() const override { return connected_ && medium_->present(); }
  void set_connected(bool c) { connected_ = c; }

  Status ControlRequest(const UsbSetup& setup, const uint8_t* data_out,
                        std::vector<uint8_t>* data_in) override;
  Status BulkOut(const uint8_t* data, size_t len, uint64_t* extra_us) override;
  Status BulkIn(size_t max_len, std::vector<uint8_t>* data, uint64_t* extra_us) override;
  void Reset() override;

  uint8_t usb_address() const { return address_; }
  uint8_t configuration() const { return configuration_; }

 private:
  enum class BotState : uint8_t { kAwaitCbw, kDataOut, kDataIn, kAwaitCswRead };

  struct Cbw {
    uint32_t tag = 0;
    uint32_t data_len = 0;
    bool dir_in = false;
    uint8_t cb[16] = {};
  };

  Status ExecuteScsi(uint64_t* extra_us);
  void QueueCsw(uint8_t status);

  BlockMedium* medium_;
  const LatencyModel* lat_;
  bool connected_ = true;
  uint8_t address_ = 0;
  uint8_t configuration_ = 0;

  BotState state_ = BotState::kAwaitCbw;
  Cbw cbw_{};
  std::vector<uint8_t> data_in_;   // staged device-to-host data
  size_t data_in_pos_ = 0;
  std::vector<uint8_t> data_out_;  // accumulated host-to-device data
  std::vector<uint8_t> csw_;
  uint8_t sense_key_ = 0;
};

}  // namespace dlt

#endif  // SRC_DEV_USB_USB_MASS_STORAGE_H_
