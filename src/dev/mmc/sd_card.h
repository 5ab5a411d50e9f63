// SD card model: the command state machine behind the MMC controller
// (SD Physical Layer commands the Linux bcm2835-sdhost path exercises:
// CMD0/2/3/7/8/9/12/13/16/17/18/23/24/25 and ACMD41 via CMD55).
#ifndef SRC_DEV_MMC_SD_CARD_H_
#define SRC_DEV_MMC_SD_CARD_H_

#include <cstdint>
#include <vector>

#include "src/dev/mmc/block_medium.h"
#include "src/soc/device.h"

namespace dlt {

// R1 card status bits (subset).
inline constexpr uint32_t kSdStatusReadyForData = 1u << 8;
inline constexpr uint32_t kSdStatusAppCmd = 1u << 5;
inline constexpr uint32_t kSdStatusIllegalCmd = 1u << 22;
inline constexpr uint32_t kSdStatusAddrError = 1u << 30;
inline constexpr int kSdStateShift = 9;

class SdCard {
 public:
  enum class State : uint8_t {
    kIdle = 0,
    kReady = 1,
    kIdent = 2,
    kStby = 3,
    kTran = 4,
    kData = 5,
    kRcv = 6,
    kPrg = 7,
  };

  struct CmdResult {
    bool accepted = false;   // card responded (false: no medium / illegal timing)
    uint32_t response = 0;   // R1/R3/R6/R7 payload
    bool data_read = false;  // command opens a read data phase
    bool data_write = false;
    uint32_t block_count = 0;  // transfer length for the data phase
  };

  explicit SdCard(BlockMedium* medium) : medium_(medium) {}

  CmdResult Command(uint8_t index, uint32_t arg);

  Status ReadData(uint64_t lba, uint32_t count, std::vector<uint8_t>* out);
  Status WriteData(uint64_t lba, uint32_t count, const uint8_t* data);

  // Ends an open data phase (CMD12 or natural completion).
  void FinishDataPhase();

  // Clean slate "as if initialization just finished": selected, transfer state.
  void ResetToTransferState();

  State state() const { return state_; }
  uint16_t rca() const { return rca_; }
  BlockMedium* medium() { return medium_; }

  uint32_t StatusWord() const;

  // Feeds every field ResetToTransferState assigns into the controller's
  // StateDigest (the card is only observable through its controller).
  void HashState(StateHasher* h) const;

 private:
  BlockMedium* medium_;
  State state_ = State::kIdle;
  uint16_t rca_ = 0;
  bool app_cmd_ = false;
  uint32_t blocklen_ = 512;
  uint32_t set_block_count_ = 0;
};

}  // namespace dlt

#endif  // SRC_DEV_MMC_SD_CARD_H_
