// Gold MMC driver (bcm2835-sdhost style): the full-featured driver the record
// campaign exercises and the native baseline runs. Implements card init and
// enumeration, per-request controller configuration, CMD23 on the read path,
// DMA via the system engine's control-block chains (one 4 KB page per 8 sectors,
// paper Fig. 4), the SoC quirk of draining the last 3 words of a read via SDDATA
// (§6.1.3), an O_DIRECT PIO path, periodic bus tuning and error recovery.
//
// All device/env/program traffic goes through DriverIo; request parameters are
// TValues so the recorder's taint tracking and path conditions see everything.
#ifndef SRC_DRV_BCM_SDHOST_DRIVER_H_
#define SRC_DRV_BCM_SDHOST_DRIVER_H_

#include "src/kern/block_layer.h"
#include "src/record/driver_io.h"

namespace dlt {

// flag bit: O_DIRECT selects the PIO (non-DMA) data path.
inline constexpr uint64_t kMmcFlagDirect = 0x1;

// The paper's replay entry: replay_mmc(rw, blkcnt, blkid, flag, buf).
inline constexpr uint64_t kMmcRwRead = 0x1;
inline constexpr uint64_t kMmcRwWrite = 0x10;

class BcmSdhostDriver : public RawBlockDriver {
 public:
  struct Config {
    uint16_t mmc_device = 0;    // machine device id of the MMC controller
    uint16_t dma_device = 0;    // machine device id of the system DMA engine
    int mmc_irq = 0;
    int dma_channel = 15;       // the paper reserves DMA channel 15 (§6.1.2)
    int dma_irq = 0;            // irq line of that channel
    PhysAddr data_port = 0;     // bus address of SDDATA (DREQ target)
    uint64_t max_sectors = 0;   // medium capacity, from enumeration
    uint64_t sched_per_page_us = 35;  // kernel per-segment (4 KB) submission cost
  };

  BcmSdhostDriver(DriverIo* io, const Config& config) : io_(io), cfg_(config) {}

  // Full power-on initialization and card enumeration (native-only path; the
  // record campaign starts from the post-init clean state).
  Status Probe();

  // The recordable transfer entry. |buf| must hold blkcnt*512 bytes.
  Status Transfer(const TValue& rw, const TValue& blkcnt, const TValue& blkid, const TValue& flag,
                  uint8_t* buf, size_t buf_len);

  // RawBlockDriver (native block-layer plumbing). Runs periodic bus tuning.
  Status ReadBlocks(uint64_t blkid, uint32_t blkcnt, uint8_t* buf) override;
  Status WriteBlocks(uint64_t blkid, uint32_t blkcnt, const uint8_t* buf) override;
  uint32_t MaxBlocksPerRequest() const override { return 256; }
  uint64_t PerPageSchedulingUs() const override { return cfg_.sched_per_page_us; }

  // Periodic bus parameter tuning the full driver performs (~1 Hz, paper §2.2);
  // intentionally NOT part of the recordable entry.
  void MaybeTune();

  uint64_t transfers() const { return transfers_; }

 private:
  Status SendCommand(const TValue& cmd_word, const TValue& arg, TValue* resp_out);
  Status ConfigureForRequest(bool is_read, const TValue& blkcnt);
  // Builds the control-block chain; returns the CB region and per-page info.
  struct DmaPlan {
    std::vector<TValue> pages;
    std::vector<TValue> lens;  // bytes of IO data in each page
    TValue cb_region;
  };
  Status PlanDma(const TValue& total_bytes, bool shorten_last_by_12, DmaPlan* plan);
  Status RunDma(const DmaPlan& plan, bool to_device);
  Status RecoverFromError(SourceLoc loc);

  DriverIo* io_;
  Config cfg_;
  uint64_t last_tune_us_ = 0;
  uint64_t transfers_ = 0;
};

}  // namespace dlt

#endif  // SRC_DRV_BCM_SDHOST_DRIVER_H_
