// MMC host controller modelled after the bcm2835-sdhost (the RPi3 controller the
// paper records, ref [49]): command FSM driven via SDCMD/SDARG, status via
// SDHSTS/SDEDM, data through the SDDATA FIFO port (PIO or system-DMA DREQ).
// Includes the SoC quirk the paper observes (§6.1.3): the DMA engine cannot move
// the last words of a read transfer, so drivers drain the final 3 words via
// SDDATA.
#ifndef SRC_DEV_MMC_MMC_CONTROLLER_H_
#define SRC_DEV_MMC_MMC_CONTROLLER_H_

#include <deque>
#include <vector>

#include "src/dev/mmc/sd_card.h"
#include "src/soc/device.h"
#include "src/soc/irq.h"
#include "src/soc/latency_model.h"
#include "src/soc/sim_clock.h"

namespace dlt {

// Register offsets.
inline constexpr uint64_t kSdCmd = 0x00;
inline constexpr uint64_t kSdArg = 0x04;
inline constexpr uint64_t kSdTout = 0x08;
inline constexpr uint64_t kSdCdiv = 0x0c;
inline constexpr uint64_t kSdRsp0 = 0x10;
inline constexpr uint64_t kSdRsp1 = 0x14;
inline constexpr uint64_t kSdRsp2 = 0x18;
inline constexpr uint64_t kSdRsp3 = 0x1c;
inline constexpr uint64_t kSdHsts = 0x20;
inline constexpr uint64_t kSdVdd = 0x30;
inline constexpr uint64_t kSdEdm = 0x34;
inline constexpr uint64_t kSdHcfg = 0x38;
inline constexpr uint64_t kSdHbct = 0x3c;
inline constexpr uint64_t kSdData = 0x40;
inline constexpr uint64_t kSdHblc = 0x50;

// SDCMD bits.
inline constexpr uint32_t kSdCmdNewFlag = 0x8000;
inline constexpr uint32_t kSdCmdFailFlag = 0x4000;
inline constexpr uint32_t kSdCmdReadCmd = 0x40;    // rw=0x1 << 6
inline constexpr uint32_t kSdCmdWriteCmd = 0x400;  // rw=0x10 << 6
inline constexpr uint32_t kSdCmdIndexMask = 0x3f;

// SDHSTS bits (write-1-to-clear).
inline constexpr uint32_t kSdHstsDataFlag = 0x01;
inline constexpr uint32_t kSdHstsFifoError = 0x08;
inline constexpr uint32_t kSdHstsCrc7Error = 0x10;
inline constexpr uint32_t kSdHstsCrc16Error = 0x20;
inline constexpr uint32_t kSdHstsCmdTimeout = 0x40;
inline constexpr uint32_t kSdHstsRewTimeout = 0x80;
inline constexpr uint32_t kSdHstsBlockIrpt = 0x200;
inline constexpr uint32_t kSdHstsBusyIrpt = 0x400;
inline constexpr uint32_t kSdHstsErrorMask = kSdHstsFifoError | kSdHstsCrc7Error |
                                             kSdHstsCrc16Error | kSdHstsCmdTimeout |
                                             kSdHstsRewTimeout;

// SDHCFG bits.
inline constexpr uint32_t kSdHcfgRelCmdLine = 0x1;
inline constexpr uint32_t kSdHcfgWideIntBus = 0x2;
inline constexpr uint32_t kSdHcfgWideExtBus = 0x4;
inline constexpr uint32_t kSdHcfgSlowCard = 0x8;
inline constexpr uint32_t kSdHcfgDataIrptEn = 0x10;
inline constexpr uint32_t kSdHcfgBlockIrptEn = 0x100;
inline constexpr uint32_t kSdHcfgBusyIrptEn = 0x400;

// SDEDM: low nibble = FSM state; bits [4:13] = FIFO word count.
inline constexpr uint32_t kSdEdmStateIdle = 0x0;
inline constexpr uint32_t kSdEdmStateCmd = 0x1;
inline constexpr uint32_t kSdEdmStateRead = 0x3;
inline constexpr uint32_t kSdEdmStateWrite = 0x4;
inline constexpr int kSdEdmFifoShift = 4;
inline constexpr uint32_t kSdEdmFifoMask = 0x3ff;

class MmcController : public MmioDevice, public DmaDataPort {
 public:
  MmcController(SimClock* clock, InterruptController* irq, const LatencyModel* lat, SdCard* card,
                int irq_line);

  std::string_view name() const override { return "mmc"; }
  uint32_t MmioRead32(uint64_t offset) override;
  void MmioWrite32(uint64_t offset, uint32_t value) override;
  void SoftReset() override;
  std::optional<uint64_t> StateDigest() const override;

  // DREQ-paced data port (the system DMA engine addresses SDDATA).
  size_t DmaPull(void* dst, size_t n) override;
  size_t DmaPush(const void* src, size_t n) override;

  int irq_line() const { return irq_line_; }
  SdCard* card() { return card_; }

  uint64_t commands_executed() const { return commands_executed_; }

 private:
  void StartCommand(uint32_t cmd);
  void CompleteCommand(uint32_t cmd);
  void CheckWriteCommit();
  void UpdateIrq();
  uint32_t EdmValue() const;

  SimClock* clock_;
  InterruptController* irq_;
  const LatencyModel* lat_;
  SdCard* card_;
  int irq_line_;

  // Registers.
  uint32_t sdcmd_ = 0;
  uint32_t sdarg_ = 0;
  uint32_t sdtout_ = 0;
  uint32_t sdcdiv_ = 0;
  uint32_t sdrsp0_ = 0;
  uint32_t sdhsts_ = 0;
  uint32_t sdvdd_ = 0;
  uint32_t sdhcfg_ = 0;
  uint32_t sdhbct_ = 512;
  uint32_t sdhblc_ = 0;

  // Data phase.
  std::deque<uint8_t> fifo_;
  uint32_t edm_state_ = kSdEdmStateIdle;
  bool write_pending_ = false;
  uint64_t write_lba_ = 0;
  uint32_t write_count_ = 0;
  size_t write_expected_bytes_ = 0;

  SimClock::EventId pending_event_ = SimClock::kInvalidEvent;
  uint64_t commands_executed_ = 0;
};

}  // namespace dlt

#endif  // SRC_DEV_MMC_MMC_CONTROLLER_H_
