#include "src/dev/mmc/mmc_controller.h"

#include <cstring>

#include "src/soc/log.h"

namespace dlt {

MmcController::MmcController(SimClock* clock, InterruptController* irq, const LatencyModel* lat,
                             SdCard* card, int irq_line)
    : clock_(clock), irq_(irq), lat_(lat), card_(card), irq_line_(irq_line) {}

uint32_t MmcController::EdmValue() const {
  uint32_t fifo_words = static_cast<uint32_t>(fifo_.size() / 4);
  if (fifo_words > kSdEdmFifoMask) {
    fifo_words = kSdEdmFifoMask;
  }
  return edm_state_ | (fifo_words << kSdEdmFifoShift);
}

uint32_t MmcController::MmioRead32(uint64_t offset) {
  switch (offset) {
    case kSdCmd: return sdcmd_;
    case kSdArg: return sdarg_;
    case kSdTout: return sdtout_;
    case kSdCdiv: return sdcdiv_;
    case kSdRsp0: return sdrsp0_;
    case kSdRsp1:
    case kSdRsp2:
    case kSdRsp3: return 0;
    case kSdHsts: return sdhsts_;
    case kSdVdd: return sdvdd_;
    case kSdEdm: return EdmValue();
    case kSdHcfg: return sdhcfg_;
    case kSdHbct: return sdhbct_;
    case kSdHblc: return sdhblc_;
    case kSdData: {
      uint32_t w = 0;
      size_t take = fifo_.size() < 4 ? fifo_.size() : 4;
      for (size_t i = 0; i < take; ++i) {
        w |= static_cast<uint32_t>(fifo_.front()) << (8 * i);
        fifo_.pop_front();
      }
      if (fifo_.empty() && edm_state_ == kSdEdmStateRead) {
        edm_state_ = kSdEdmStateIdle;
      }
      return w;
    }
    default:
      return 0;
  }
}

void MmcController::MmioWrite32(uint64_t offset, uint32_t value) {
  switch (offset) {
    case kSdCmd:
      if (value & kSdCmdNewFlag) {
        StartCommand(value);
      } else {
        sdcmd_ = value;
      }
      break;
    case kSdArg: sdarg_ = value; break;
    case kSdTout: sdtout_ = value; break;
    case kSdCdiv: sdcdiv_ = value; break;
    case kSdHsts:
      sdhsts_ &= ~value;  // write-1-to-clear
      UpdateIrq();
      break;
    case kSdVdd: sdvdd_ = value; break;
    case kSdHcfg: sdhcfg_ = value; break;
    case kSdHbct: sdhbct_ = value; break;
    case kSdHblc: sdhblc_ = value; break;
    case kSdData:
      for (int i = 0; i < 4; ++i) {
        fifo_.push_back(static_cast<uint8_t>(value >> (8 * i)));
      }
      CheckWriteCommit();
      break;
    default:
      break;
  }
}

void MmcController::StartCommand(uint32_t cmd) {
  sdcmd_ = cmd;  // NEW flag stays set while the command executes
  edm_state_ = kSdEdmStateCmd;
  pending_event_ = clock_->ScheduleIn(lat_->mmc_cmd_us, [this, cmd] {
    pending_event_ = SimClock::kInvalidEvent;
    CompleteCommand(cmd);
  });
}

void MmcController::CompleteCommand(uint32_t cmd) {
  ++commands_executed_;
  uint8_t index = static_cast<uint8_t>(cmd & kSdCmdIndexMask);
  SdCard::CmdResult r = card_->Command(index, sdarg_);
  if (!r.accepted) {
    sdcmd_ = (cmd & ~kSdCmdNewFlag) | kSdCmdFailFlag;
    sdhsts_ |= kSdHstsCmdTimeout;
    edm_state_ = kSdEdmStateIdle;
    UpdateIrq();
    return;
  }
  sdrsp0_ = r.response;
  sdcmd_ = cmd & ~(kSdCmdNewFlag | kSdCmdFailFlag);

  if (r.data_read) {
    uint32_t count = index == 17 ? 1 : sdhblc_;
    if (count == 0) {
      count = r.block_count;
    }
    uint64_t lba = sdarg_;
    edm_state_ = kSdEdmStateRead;
    uint64_t latency = static_cast<uint64_t>(count) * lat_->sd_read_block_us;
    pending_event_ = clock_->ScheduleIn(latency, [this, lba, count] {
      pending_event_ = SimClock::kInvalidEvent;
      std::vector<uint8_t> data;
      Status s = card_->ReadData(lba, count, &data);
      if (!Ok(s)) {
        // Medium vanished mid-transfer: surface a data timeout, no data IRQ.
        sdhsts_ |= kSdHstsRewTimeout;
        edm_state_ = kSdEdmStateIdle;
        UpdateIrq();
        return;
      }
      fifo_.insert(fifo_.end(), data.begin(), data.end());
      card_->FinishDataPhase();
      sdhsts_ |= kSdHstsDataFlag | kSdHstsBlockIrpt;
      UpdateIrq();
    });
  } else if (r.data_write) {
    write_pending_ = true;
    write_lba_ = sdarg_;
    write_count_ = index == 24 ? 1 : sdhblc_;
    if (write_count_ == 0) {
      write_count_ = 1;
    }
    write_expected_bytes_ = static_cast<size_t>(write_count_) * BlockMedium::kSectorSize;
    edm_state_ = kSdEdmStateWrite;
    CheckWriteCommit();
  } else {
    edm_state_ = kSdEdmStateIdle;
  }
}

void MmcController::CheckWriteCommit() {
  if (!write_pending_ || fifo_.size() < write_expected_bytes_) {
    return;
  }
  std::vector<uint8_t> data(write_expected_bytes_);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = fifo_.front();
    fifo_.pop_front();
  }
  write_pending_ = false;
  uint64_t lba = write_lba_;
  uint32_t count = write_count_;
  uint64_t latency =
      lat_->sd_write_setup_us + static_cast<uint64_t>(count) * lat_->sd_write_block_us;
  pending_event_ = clock_->ScheduleIn(latency, [this, lba, count, data = std::move(data)] {
    pending_event_ = SimClock::kInvalidEvent;
    Status s = card_->WriteData(lba, count, data.data());
    if (!Ok(s)) {
      sdhsts_ |= kSdHstsRewTimeout;
      edm_state_ = kSdEdmStateIdle;
      UpdateIrq();
      return;
    }
    card_->FinishDataPhase();
    edm_state_ = kSdEdmStateIdle;
    sdhsts_ |= kSdHstsBusyIrpt;
    UpdateIrq();
  });
}

void MmcController::UpdateIrq() {
  bool want = false;
  if ((sdhsts_ & kSdHstsBlockIrpt) && (sdhcfg_ & kSdHcfgBlockIrptEn)) {
    want = true;
  }
  if ((sdhsts_ & kSdHstsBusyIrpt) && (sdhcfg_ & kSdHcfgBusyIrptEn)) {
    want = true;
  }
  if ((sdhsts_ & kSdHstsDataFlag) && (sdhcfg_ & kSdHcfgDataIrptEn)) {
    want = true;
  }
  if (want) {
    irq_->Raise(irq_line_);
  } else {
    irq_->Clear(irq_line_);
  }
}

size_t MmcController::DmaPull(void* dst, size_t n) {
  uint8_t* out = static_cast<uint8_t*>(dst);
  size_t take = fifo_.size() < n ? fifo_.size() : n;
  for (size_t i = 0; i < take; ++i) {
    out[i] = fifo_.front();
    fifo_.pop_front();
  }
  return take;
}

size_t MmcController::DmaPush(const void* src, size_t n) {
  const uint8_t* in = static_cast<const uint8_t*>(src);
  fifo_.insert(fifo_.end(), in, in + n);
  CheckWriteCommit();
  return n;
}

void MmcController::SoftReset() {
  if (pending_event_ != SimClock::kInvalidEvent) {
    clock_->Cancel(pending_event_);
    pending_event_ = SimClock::kInvalidEvent;
  }
  fifo_.clear();
  write_pending_ = false;
  edm_state_ = kSdEdmStateIdle;
  sdcmd_ = 0;
  sdarg_ = 0;
  sdrsp0_ = 0;
  sdhsts_ = 0;
  sdhblc_ = 0;
  sdhbct_ = 512;
  // Post-init clean slate (paper §5): power on, default timeout/divisor; the
  // card returns to the selected transfer state established at boot init.
  sdvdd_ = 1;
  sdtout_ = 0xf00000;
  sdcdiv_ = 0x148;
  sdhcfg_ = 0;
  irq_->Clear(irq_line_);
  card_->ResetToTransferState();
}

std::optional<uint64_t> MmcController::StateDigest() const {
  // Left out: request latches every MMC template writes before anything reads
  // them. ConfigureForRequest writes SDVDD, SDTOUT, SDCDIV, SDHCFG, SDHBCT and
  // SDHBLC before its first register read (SDEDM); SendCommand writes SDARG
  // and then SDCMD before it reads SDCMD back, and reads SDRSP0 only after a
  // command that succeeded and so overwrote it.
  StateHasher h;
  h.Add(pending_event_ != SimClock::kInvalidEvent).Add(irq_->Pending(irq_line_));
  h.Add(fifo_.size());
  for (uint8_t b : fifo_) {
    h.Add(b);
  }
  h.Add(write_pending_).Add(edm_state_).Add(sdhsts_);
  card_->HashState(&h);
  return h.digest();
}

}  // namespace dlt
