#include "src/dev/cryptoacc/cryptoacc_device.h"

#include <cstring>

namespace dlt {

namespace {

uint32_t ReadRamWord(AddressSpace* mem, PhysAddr a) {
  uint8_t b[4] = {0, 0, 0, 0};
  (void)mem->DmaRead(a, b, 4);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) | (static_cast<uint32_t>(b[3]) << 24);
}

}  // namespace

uint8_t CryptoaccDevice::KeystreamByte(uint32_t key, uint64_t index) {
  uint64_t s = (static_cast<uint64_t>(key) << 32) ^ (index * 0x9e3779b97f4a7c15ull);
  s ^= s >> 29;
  s *= 0xbf58476d1ce4e5b9ull;
  s ^= s >> 32;
  return static_cast<uint8_t>(s);
}

void CryptoaccDevice::DigestBytes(uint32_t key, const uint8_t* data, size_t n,
                                  uint8_t out[kCaDigestBytes]) {
  uint64_t h = 0xcbf29ce484222325ull ^ key;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  uint64_t s = h;
  for (uint32_t i = 0; i < kCaDigestBytes; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    out[i] = static_cast<uint8_t>(s >> 56);
  }
}

uint32_t CryptoaccDevice::MmioRead32(uint64_t offset) {
  switch (offset) {
    case kCaCtrl:
      return ctrl_;
    case kCaStatus:
      return status_;
    case kCaRingBase:
      return ring_base_;
    case kCaRingSize:
      return ring_size_;
    case kCaHead:
      return head_;
    case kCaTail:
      return tail_;
    case kCaKey:
      return key_;
    default:
      return 0;
  }
}

void CryptoaccDevice::MmioWrite32(uint64_t offset, uint32_t value) {
  switch (offset) {
    case kCaCtrl:
      ctrl_ = value;
      UpdateIrq();
      break;
    case kCaStatus:
      status_ &= ~(value & (kCaStatusDone | kCaStatusError));
      UpdateIrq();
      break;
    case kCaRingBase:
      ring_base_ = value;
      break;
    case kCaRingSize:
      ring_size_ = value;
      tail_ = 0;
      head_ = 0;
      break;
    case kCaHead:
      head_ = value;
      if ((ctrl_ & kCaCtrlEnable) != 0 && (status_ & kCaStatusBusy) == 0 && head_ != tail_) {
        Kick();
      }
      break;
    case kCaKey:
      key_ = value;
      break;
    default:
      break;
  }
}

void CryptoaccDevice::Kick() {
  // head/tail are free-running producer/consumer counters; the slot is the
  // counter modulo the ring capacity. The pending window must fit the ring.
  if (ring_size_ == 0 || ring_size_ > kCaMaxRing || head_ - tail_ > ring_size_) {
    status_ |= kCaStatusError;
    UpdateIrq();
    return;
  }
  status_ |= kCaStatusBusy;

  // Walk the pending window once to price the batch; the transforms happen at
  // completion time so mid-flight soft resets drop the job cleanly.
  uint64_t total_bytes = 0;
  bool want_irq = false;
  bool error = false;
  for (uint32_t i = tail_; i != head_; ++i) {
    PhysAddr d = ring_base_ + static_cast<uint64_t>(i % ring_size_) * kCaDescBytes;
    uint32_t dctrl = ReadRamWord(mem_, d);
    uint32_t len = ReadRamWord(mem_, d + 12);
    if ((dctrl & kCaDescValid) == 0 || len == 0) {
      error = true;
      break;
    }
    if ((dctrl & kCaDescIrq) != 0) {
      want_irq = true;
    }
    total_bytes += len;
  }
  uint64_t cost_us =
      lat_->crypto_setup_us + (total_bytes * lat_->crypto_per_kb_us + 1023) / 1024;
  pending_ = clock_->ScheduleIn(cost_us, [this, error, want_irq] { Complete(error, want_irq); });
}

void CryptoaccDevice::Complete(bool error, bool want_irq) {
  pending_ = SimClock::kInvalidEvent;
  if (!error) {
    std::vector<uint8_t> buf;
    for (uint32_t i = tail_; i != head_; ++i) {
      PhysAddr d = ring_base_ + static_cast<uint64_t>(i % ring_size_) * kCaDescBytes;
      uint32_t dctrl = ReadRamWord(mem_, d);
      PhysAddr src = ReadRamWord(mem_, d + 4);
      PhysAddr dst = ReadRamWord(mem_, d + 8);
      uint32_t len = ReadRamWord(mem_, d + 12);
      uint32_t dkey = ReadRamWord(mem_, d + 16);
      uint32_t op = (dctrl >> kCaOpShift) & kCaOpMask;

      // The length is guest-written: check the source range before sizing a
      // host buffer by it. A range outside RAM fails here as DmaRead would.
      if (mem_->RamPtr(src, len) == nullptr) {
        error = true;
        break;
      }
      buf.resize(len);
      if (!Ok(mem_->DmaRead(src, buf.data(), len))) {
        error = true;
        break;
      }
      if (op == kCaOpEncrypt || op == kCaOpDecrypt) {
        // Involutive XOR keystream: the same transform both ways.
        for (uint32_t b = 0; b < len; ++b) {
          buf[b] ^= KeystreamByte(dkey, b);
        }
        if (!Ok(mem_->DmaWrite(dst, buf.data(), len))) {
          error = true;
          break;
        }
      } else if (op == kCaOpDigest) {
        uint8_t digest[kCaDigestBytes];
        DigestBytes(dkey, buf.data(), len, digest);
        if (!Ok(mem_->DmaWrite(dst, digest, kCaDigestBytes))) {
          error = true;
          break;
        }
      } else {
        error = true;
        break;
      }
      // Clear the valid bit: the engine owns-and-returns each descriptor.
      uint8_t cleared[4];
      uint32_t done_ctrl = dctrl & ~kCaDescValid;
      std::memcpy(cleared, &done_ctrl, 4);
      (void)mem_->DmaWrite(d, cleared, 4);
      ++descriptors_processed_;
    }
  }
  tail_ = head_;
  status_ &= ~kCaStatusBusy;
  status_ |= error ? kCaStatusError : kCaStatusDone;
  if (want_irq || error) {
    UpdateIrq();
  }
}

void CryptoaccDevice::UpdateIrq() {
  if ((ctrl_ & kCaCtrlEnable) != 0 &&
      (status_ & (kCaStatusDone | kCaStatusError)) != 0) {
    irq_->Raise(irq_line_);
  } else {
    irq_->Clear(irq_line_);
  }
}

void CryptoaccDevice::SoftReset() {
  // Drop the in-flight batch and ring configuration; there is no NV state.
  if (pending_ != SimClock::kInvalidEvent) {
    clock_->Cancel(pending_);
    pending_ = SimClock::kInvalidEvent;
  }
  ctrl_ = kCaCtrlEnable;
  status_ = 0;
  ring_base_ = 0;
  ring_size_ = 0;
  head_ = 0;
  tail_ = 0;
  key_ = 0;
  UpdateIrq();
}

std::optional<uint64_t> CryptoaccDevice::StateDigest() const {
  // Left out: the ring latches. Every crypto template writes RING_BASE, then
  // RING_SIZE (which also zeroes the absolute head and tail counters), then
  // KEY, before its HEAD doorbell; only the pending window head - tail
  // survives that sequence.
  StateHasher h;
  h.Add(pending_ != SimClock::kInvalidEvent).Add(irq_->Pending(irq_line_));
  h.Add(ctrl_).Add(status_).Add(head_ - tail_);
  return h.digest();
}

}  // namespace dlt
