#include "src/dev/mmc/sd_card.h"

namespace dlt {

uint32_t SdCard::StatusWord() const {
  uint32_t s = static_cast<uint32_t>(state_) << kSdStateShift;
  if (state_ == State::kTran || state_ == State::kStby) {
    s |= kSdStatusReadyForData;
  }
  if (app_cmd_) {
    s |= kSdStatusAppCmd;
  }
  return s;
}

SdCard::CmdResult SdCard::Command(uint8_t index, uint32_t arg) {
  CmdResult r;
  if (!medium_->present()) {
    return r;  // card gone: command times out
  }
  bool was_app = app_cmd_;
  app_cmd_ = false;

  if (was_app && index == 41) {  // ACMD41 SD_SEND_OP_COND
    r.accepted = true;
    r.response = 0xc0ff8000;  // powered up, CCS (SDHC), full voltage window
    if (state_ == State::kIdle) {
      state_ = State::kReady;
    }
    return r;
  }

  switch (index) {
    case 0:  // GO_IDLE_STATE
      state_ = State::kIdle;
      r.accepted = true;
      break;
    case 8:  // SEND_IF_COND: echo voltage + check pattern (R7)
      r.accepted = true;
      r.response = arg & 0xfff;
      break;
    case 55:  // APP_CMD
      app_cmd_ = true;
      r.accepted = true;
      r.response = StatusWord() | kSdStatusAppCmd;
      break;
    case 2:  // ALL_SEND_CID
      if (state_ == State::kReady) {
        state_ = State::kIdent;
      }
      r.accepted = true;
      r.response = 0x02544d53;  // CID fragment: "\x02TMS"
      break;
    case 3:  // SEND_RELATIVE_ADDR (R6)
      rca_ = 0x1234;
      state_ = State::kStby;
      r.accepted = true;
      r.response = static_cast<uint32_t>(rca_) << 16;
      break;
    case 9:  // SEND_CSD
      r.accepted = (arg >> 16) == rca_;
      r.response = static_cast<uint32_t>(medium_->num_sectors() >> 10);  // C_SIZE proxy
      break;
    case 7:  // SELECT_CARD
      if ((arg >> 16) == rca_) {
        state_ = State::kTran;
        r.accepted = true;
        r.response = StatusWord();
      }
      break;
    case 13:  // SEND_STATUS
      r.accepted = true;
      r.response = StatusWord();
      break;
    case 16:  // SET_BLOCKLEN
      blocklen_ = arg;
      r.accepted = true;
      r.response = StatusWord();
      break;
    case 23:  // SET_BLOCK_COUNT
      set_block_count_ = arg;
      r.accepted = true;
      r.response = StatusWord();
      break;
    case 17:  // READ_SINGLE_BLOCK
    case 18:  // READ_MULTIPLE_BLOCK
      if (state_ != State::kTran) {
        r.response = StatusWord() | kSdStatusIllegalCmd;
        r.accepted = true;
        break;
      }
      r.accepted = true;
      r.response = StatusWord();
      r.data_read = true;
      r.block_count = index == 17 ? 1 : (set_block_count_ != 0 ? set_block_count_ : 1);
      state_ = State::kData;
      break;
    case 24:  // WRITE_BLOCK
    case 25:  // WRITE_MULTIPLE_BLOCK
      if (state_ != State::kTran) {
        r.response = StatusWord() | kSdStatusIllegalCmd;
        r.accepted = true;
        break;
      }
      r.accepted = true;
      r.response = StatusWord();
      r.data_write = true;
      r.block_count = index == 24 ? 1 : 0;  // 0: until CMD12 (count set by host controller)
      state_ = State::kRcv;
      break;
    case 12:  // STOP_TRANSMISSION
      r.accepted = true;
      r.response = StatusWord();
      FinishDataPhase();
      break;
    default:
      r.accepted = true;
      r.response = StatusWord() | kSdStatusIllegalCmd;
      break;
  }
  return r;
}

Status SdCard::ReadData(uint64_t lba, uint32_t count, std::vector<uint8_t>* out) {
  out->resize(static_cast<size_t>(count) * BlockMedium::kSectorSize);
  return medium_->Read(lba, count, out->data());
}

Status SdCard::WriteData(uint64_t lba, uint32_t count, const uint8_t* data) {
  return medium_->Write(lba, count, data);
}

void SdCard::FinishDataPhase() {
  if (state_ == State::kData || state_ == State::kRcv || state_ == State::kPrg) {
    state_ = State::kTran;
  }
  set_block_count_ = 0;
}

void SdCard::ResetToTransferState() {
  state_ = State::kTran;
  rca_ = 0x1234;
  app_cmd_ = false;
  blocklen_ = 512;
  set_block_count_ = 0;
}

void SdCard::HashState(StateHasher* h) const {
  h->Add(static_cast<uint64_t>(state_)).Add(rca_).Add(app_cmd_).Add(blocklen_).Add(
      set_block_count_);
}

}  // namespace dlt
