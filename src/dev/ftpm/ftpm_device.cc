#include "src/dev/ftpm/ftpm_device.h"

#include <cstring>

namespace dlt {

namespace {

// FNV-1a over a running 64-bit state; the mixing primitive for ExtendMix and
// quote digests. Not cryptographic — deterministic and collision-decent is all
// the simulation needs.
uint64_t Fnv1a(uint64_t h, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void ExpandDigest(uint64_t seed, std::array<uint8_t, kFtpmPcrBytes>* out) {
  uint64_t s = seed;
  for (size_t i = 0; i < kFtpmPcrBytes; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    (*out)[i] = static_cast<uint8_t>(s >> 56);
  }
}

}  // namespace

std::array<uint8_t, kFtpmPcrBytes> FtpmDevice::ExtendMix(
    const std::array<uint8_t, kFtpmPcrBytes>& pcr, const uint8_t* digest, size_t len) {
  uint64_t h = 0xcbf29ce484222325ull;
  h = Fnv1a(h, pcr.data(), pcr.size());
  h = Fnv1a(h, digest, len);
  std::array<uint8_t, kFtpmPcrBytes> out;
  ExpandDigest(h, &out);
  return out;
}

uint8_t FtpmDevice::NextDrbgByte() {
  drbg_ = drbg_ * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<uint8_t>(drbg_ >> 56);
}

uint32_t FtpmDevice::MmioRead32(uint64_t offset) {
  switch (offset) {
    case kFtpmCtrl:
      return ctrl_;
    case kFtpmStatus:
      return status_;
    case kFtpmOrd:
      return ord_;
    case kFtpmArg:
      return arg_;
    case kFtpmReqLen:
      return req_len_;
    case kFtpmData: {
      // Pop one response word (little-endian, zero-padded at the tail).
      uint32_t v = 0;
      for (int i = 0; i < 4; ++i) {
        uint8_t b = rsp_pos_ < rsp_.size() ? rsp_[rsp_pos_] : 0;
        if (rsp_pos_ < rsp_.size()) {
          ++rsp_pos_;
        }
        v |= static_cast<uint32_t>(b) << (8 * i);
      }
      return v;
    }
    case kFtpmRspLen:
      return static_cast<uint32_t>(rsp_.size());
    case kFtpmVer:
      return kFtpmVersion;
    default:
      return 0;
  }
}

void FtpmDevice::MmioWrite32(uint64_t offset, uint32_t value) {
  switch (offset) {
    case kFtpmCtrl:
      ctrl_ = value;
      UpdateIrq();
      break;
    case kFtpmStatus:
      // W1C: acking ready/error.
      status_ &= ~(value & (kFtpmStatusReady | kFtpmStatusError));
      UpdateIrq();
      break;
    case kFtpmOrd:
      ord_ = value;
      break;
    case kFtpmArg:
      arg_ = value;
      break;
    case kFtpmReqLen:
      req_len_ = value;
      req_.clear();
      break;
    case kFtpmData:
      // Push one request word; extra bytes beyond req_len_ are dropped.
      for (int i = 0; i < 4; ++i) {
        if (req_.size() < req_len_) {
          req_.push_back(static_cast<uint8_t>(value >> (8 * i)));
        }
      }
      break;
    case kFtpmGo:
      if ((value & 1) != 0 && (ctrl_ & kFtpmCtrlEnable) != 0 &&
          (status_ & kFtpmStatusBusy) == 0) {
        Execute();
      }
      break;
    default:
      break;
  }
}

void FtpmDevice::Execute() {
  status_ |= kFtpmStatusBusy;
  status_ &= ~(kFtpmStatusReady | kFtpmStatusError);
  rsp_.clear();
  rsp_pos_ = 0;

  bool error = false;
  switch (ord_) {
    case kFtpmOrdGetRandom: {
      uint32_t n = arg_;
      if (n == 0 || n > kFtpmMaxRandom) {
        error = true;
        break;
      }
      rsp_.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        rsp_[i] = NextDrbgByte();
      }
      break;
    }
    case kFtpmOrdPcrExtend: {
      if (req_.size() != kFtpmPcrBytes) {
        error = true;
        break;
      }
      auto& pcr = pcrs_[arg_ % kFtpmPcrCount];
      pcr = ExtendMix(pcr, req_.data(), req_.size());
      rsp_.assign(4, 0);  // TPM_RC_SUCCESS
      break;
    }
    case kFtpmOrdPcrRead: {
      const auto& pcr = pcrs_[arg_ % kFtpmPcrCount];
      rsp_.assign(pcr.begin(), pcr.end());
      break;
    }
    case kFtpmOrdQuote: {
      if (req_.size() != kFtpmNonceBytes) {
        error = true;
        break;
      }
      // Quote = nonce echo || digest over (nonce, selected PCR bank).
      rsp_.assign(req_.begin(), req_.end());
      uint64_t h = 0xcbf29ce484222325ull;
      h = Fnv1a(h, req_.data(), req_.size());
      for (uint32_t i = 0; i < kFtpmPcrCount; ++i) {
        if ((arg_ & (1u << i)) != 0) {
          h = Fnv1a(h, pcrs_[i].data(), pcrs_[i].size());
        }
      }
      std::array<uint8_t, kFtpmPcrBytes> digest;
      ExpandDigest(h, &digest);
      rsp_.insert(rsp_.end(), digest.begin(), digest.end());
      break;
    }
    default:
      error = true;
      break;
  }

  // Firmware cost: base command exchange plus marshalling per KB moved.
  uint64_t bytes = req_len_ + rsp_.size();
  uint64_t cost_us = lat_->ftpm_cmd_us + (bytes * lat_->ftpm_per_kb_us + 1023) / 1024;
  pending_ = clock_->ScheduleIn(cost_us, [this, error] { Complete(error); });
}

void FtpmDevice::Complete(bool error) {
  pending_ = SimClock::kInvalidEvent;
  status_ &= ~kFtpmStatusBusy;
  status_ |= error ? kFtpmStatusError : kFtpmStatusReady;
  if (error) {
    rsp_.clear();
  }
  ++commands_executed_;
  UpdateIrq();
}

void FtpmDevice::UpdateIrq() {
  if ((ctrl_ & kFtpmCtrlEnable) != 0 &&
      (status_ & (kFtpmStatusReady | kFtpmStatusError)) != 0) {
    irq_->Raise(irq_line_);
  } else {
    irq_->Clear(irq_line_);
  }
}

void FtpmDevice::SoftReset() {
  // Drop the in-flight command and mailbox buffers; the NV state (PCR bank,
  // DRBG) survives — it lives in RPMB, not in the mailbox interface.
  if (pending_ != SimClock::kInvalidEvent) {
    clock_->Cancel(pending_);
    pending_ = SimClock::kInvalidEvent;
  }
  ctrl_ = kFtpmCtrlEnable;
  status_ = 0;
  ord_ = 0;
  arg_ = 0;
  req_len_ = 0;
  req_.clear();
  rsp_.clear();
  rsp_pos_ = 0;
  UpdateIrq();
}

std::optional<uint64_t> FtpmDevice::StateDigest() const {
  // Left out: the request latches. Every fTPM template writes ORD and ARG, and
  // its REQLEN write empties the request FIFO, before GO; GO's Execute() then
  // empties the response FIFO and rewinds its cursor before any DATA or
  // RSPLEN read. The PCR bank and DRBG are NV state SoftReset keeps.
  StateHasher h;
  h.Add(pending_ != SimClock::kInvalidEvent).Add(irq_->Pending(irq_line_));
  h.Add(ctrl_).Add(status_);
  return h.digest();
}

}  // namespace dlt
