// Gold USB mass-storage driver over the DWC2 host controller: port management
// and device enumeration, BOT CBW/CSW descriptors in DMA memory, SCSI command
// selection (READ(10)/WRITE(10), the "2nd shortest" variants that encode the
// requested LBA range, paper §6.2.3), read-modify-write for sub-LBA writes, and
// the per-4KB transfer scheduling the native block layer pays for (§7.3.3).
#ifndef SRC_DRV_DWC2_STORAGE_DRIVER_H_
#define SRC_DRV_DWC2_STORAGE_DRIVER_H_

#include "src/kern/block_layer.h"
#include "src/record/driver_io.h"

namespace dlt {

class Dwc2StorageDriver : public RawBlockDriver {
 public:
  struct Config {
    uint16_t usb_device = 0;  // machine device id of the DWC2 controller
    int usb_irq = 0;
    int channel = 1;          // the paper reserves the 1st transmission channel (§6.2.2)
    uint64_t max_sectors = 0;
    uint64_t sched_per_page_us = 95;  // native per-4KB scheduling CPU cost
  };

  Dwc2StorageDriver(DriverIo* io, const Config& config) : io_(io), cfg_(config) {}

  // Port reset + enumeration + INQUIRY + READ CAPACITY (native-only init).
  Status Probe();

  // The recordable entry: replay_usb(rw, blkcnt, blkid, flag, buf).
  Status Transfer(const TValue& rw, const TValue& blkcnt, const TValue& blkid, const TValue& flag,
                  uint8_t* buf, size_t buf_len);

  // RawBlockDriver.
  Status ReadBlocks(uint64_t blkid, uint32_t blkcnt, uint8_t* buf) override;
  Status WriteBlocks(uint64_t blkid, uint32_t blkcnt, const uint8_t* buf) override;
  uint32_t MaxBlocksPerRequest() const override { return 256; }
  uint64_t PerPageSchedulingUs() const override { return cfg_.sched_per_page_us; }

  uint64_t transfers() const { return transfers_; }

 private:
  // One bulk transaction on the reserved channel; waits for and acknowledges
  // the completion interrupt chain (GINTSTS -> HAINT -> HCINT).
  Status BulkXfer(bool dir_in, const TValue& dma_addr, const TValue& len);
  // A whole data stage, split into 4 KB scatter-gather pages.
  Status BulkData(bool dir_in, const TValue& base, const TValue& len);
  Status ControlXfer(uint8_t bm_request_type, uint8_t b_request, uint16_t w_value,
                     uint16_t w_index, uint16_t w_length, uint8_t* data_in);
  // Sends a CBW; |tag| returns the (env-derived) command serial number.
  Status SendCbw(const TValue& scsi_op, const TValue& lba4k, const TValue& count4k,
                 const TValue& data_len, bool dir_in, TValue* tag_out);
  Status ReadCsw(const TValue& tag);

  DriverIo* io_;
  Config cfg_;
  uint64_t transfers_ = 0;
};

}  // namespace dlt

#endif  // SRC_DRV_DWC2_STORAGE_DRIVER_H_
