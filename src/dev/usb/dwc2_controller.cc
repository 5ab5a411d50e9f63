#include "src/dev/usb/dwc2_controller.h"

#include <algorithm>

#include <cstring>
#include <vector>

#include "src/soc/log.h"

namespace dlt {

Dwc2Controller::Dwc2Controller(AddressSpace* mem, SimClock* clock, InterruptController* irq,
                               const LatencyModel* lat, int irq_line)
    : mem_(mem), clock_(clock), irq_(irq), lat_(lat), irq_line_(irq_line) {}

uint32_t Dwc2Controller::MmioRead32(uint64_t offset) {
  if (offset >= kHcBase && offset < kHcBase + kNumChannels * kHcStride) {
    int ch = static_cast<int>((offset - kHcBase) / kHcStride);
    uint64_t reg = (offset - kHcBase) % kHcStride;
    const Channel& c = channels_[static_cast<size_t>(ch)];
    switch (reg) {
      case kHcChar: return c.hcchar;
      case kHcInt: return c.hcint;
      case kHcIntMsk: return c.hcintmsk;
      case kHcTsiz: return c.hctsiz;
      case kHcDma: return c.hcdma;
      default: return 0;
    }
  }
  switch (offset) {
    case kGrstCtl: return grstctl_;  // reset bit self-clears immediately
    case kGIntSts: return gintsts_;
    case kGIntMsk: return gintmsk_;
    case kHfNum:
      // Free-running microframe counter (125 us per microframe): a time-derived
      // statistic input that differs between record and replay runs.
      return static_cast<uint32_t>((clock_->now_us() / 125) & 0x3fff);
    case kHaInt: return haint_;
    case kHaIntMsk: return haintmsk_;
    case kHPrt: {
      uint32_t v = hprt_;
      if (device_ != nullptr && device_->connected()) {
        v |= kHPrtConnSts;
      }
      return v;
    }
    default:
      return 0;
  }
}

void Dwc2Controller::MmioWrite32(uint64_t offset, uint32_t value) {
  if (offset >= kHcBase && offset < kHcBase + kNumChannels * kHcStride) {
    int ch = static_cast<int>((offset - kHcBase) / kHcStride);
    uint64_t reg = (offset - kHcBase) % kHcStride;
    Channel& c = channels_[static_cast<size_t>(ch)];
    switch (reg) {
      case kHcChar:
        c.hcchar = value & ~kHcCharDis;
        if (value & kHcCharDis) {
          if (c.pending != SimClock::kInvalidEvent) {
            clock_->Cancel(c.pending);
            c.pending = SimClock::kInvalidEvent;
          }
          c.hcchar &= ~kHcCharEna;
          c.hcint |= kHcIntChHltd;
          UpdateIrq();
          break;
        }
        if (value & kHcCharEna) {
          StartChannel(ch);
        }
        break;
      case kHcInt:
        c.hcint &= ~value;  // write-1-to-clear
        UpdateIrq();
        break;
      case kHcIntMsk: c.hcintmsk = value; break;
      case kHcTsiz: c.hctsiz = value; break;
      case kHcDma: c.hcdma = value; break;
      default: break;
    }
    return;
  }
  switch (offset) {
    case kGrstCtl:
      if (value & kGrstCtlCoreRst) {
        SoftReset();
      }
      break;
    case kGIntSts:
      gintsts_ &= ~(value & (kGIntStsSof | kGIntStsPrtInt));  // HCINT is derived
      UpdateIrq();
      break;
    case kGIntMsk: gintmsk_ = value; break;
    case kHaIntMsk: haintmsk_ = value; break;
    case kHPrt: {
      if (value & kHPrtRst) {
        hprt_ |= kHPrtRst;
        if (device_ != nullptr) {
          device_->Reset();
        }
      } else if (hprt_ & kHPrtRst) {
        hprt_ &= ~kHPrtRst;
        hprt_ |= kHPrtEna;
      }
      hprt_ &= ~(value & kHPrtConnDet);  // W1C
      break;
    }
    default:
      break;
  }
}

void Dwc2Controller::StartChannel(int ch) {
  Channel& c = channels_[static_cast<size_t>(ch)];
  uint32_t epnum = (c.hcchar >> kHcCharEpNumShift) & kHcCharEpNumMask;
  bool dir_in = (c.hcchar & kHcCharEpDirIn) != 0;
  uint32_t xfersize = c.hctsiz & kHcTsizXferSizeMask;
  uint32_t pid = (c.hctsiz >> kHcTsizPidShift) & 0x3;
  uint32_t dma = c.hcdma;

  uint64_t wire_us = lat_->usb_xact_us + (xfersize * lat_->usb_data_per_kb_us + 1023) / 1024;

  c.pending = clock_->ScheduleIn(wire_us, [this, ch, epnum, dir_in, xfersize, pid, dma] {
    Channel& cc = channels_[static_cast<size_t>(ch)];
    cc.pending = SimClock::kInvalidEvent;
    if (device_ == nullptr || !device_->connected()) {
      FinishChannel(ch, kHcIntXactErr | kHcIntChHltd, 0);
      return;
    }
    uint64_t extra_us = 0;
    uint32_t bits = kHcIntXferCompl | kHcIntChHltd;
    size_t done = 0;
    if (epnum == 0) {
      // Control endpoint: SETUP stage caches the request; IN data stage
      // executes it; zero-length stages complete trivially.
      if (pid == kHcTsizPidSetup && !dir_in && xfersize >= 8) {
        uint8_t raw[8];
        if (!Ok(mem_->DmaRead(dma, raw, 8))) {
          bits = kHcIntXactErr | kHcIntChHltd;
        } else {
          pending_setup_.bm_request_type = raw[0];
          pending_setup_.b_request = raw[1];
          std::memcpy(&pending_setup_.w_value, raw + 2, 2);
          std::memcpy(&pending_setup_.w_index, raw + 4, 2);
          std::memcpy(&pending_setup_.w_length, raw + 6, 2);
          have_setup_ = true;
          done = 8;
          // Host-to-device data rides along after the 8 setup bytes.
          if (pending_setup_.w_length > 0 && !(pending_setup_.bm_request_type & 0x80)) {
            std::vector<uint8_t> out(pending_setup_.w_length);
            if (Ok(mem_->DmaRead(dma + 8, out.data(), out.size()))) {
              (void)device_->ControlRequest(pending_setup_, out.data(), nullptr);
              have_setup_ = false;
            }
          } else if (pending_setup_.w_length == 0) {
            (void)device_->ControlRequest(pending_setup_, nullptr, nullptr);
            have_setup_ = false;
          }
        }
      } else if (dir_in && have_setup_) {
        std::vector<uint8_t> in;
        Status s = device_->ControlRequest(pending_setup_, nullptr, &in);
        have_setup_ = false;
        if (!Ok(s)) {
          bits = kHcIntStall | kHcIntChHltd;
        } else {
          size_t n = std::min<size_t>(in.size(), xfersize);
          if (n > 0 && !Ok(mem_->DmaWrite(dma, in.data(), n))) {
            bits = kHcIntXactErr | kHcIntChHltd;
          }
          done = n;
        }
      }
      // Zero-length status stages fall through with XferCompl.
    } else if (dir_in) {
      std::vector<uint8_t> in;
      Status s = device_->BulkIn(xfersize, &in, &extra_us);
      if (!Ok(s)) {
        bits = kHcIntXactErr | kHcIntChHltd;
      } else {
        if (!in.empty() && !Ok(mem_->DmaWrite(dma, in.data(), in.size()))) {
          bits = kHcIntXactErr | kHcIntChHltd;
        }
        done = in.size();
      }
    } else {
      std::vector<uint8_t> out(xfersize);
      if (!Ok(mem_->DmaRead(dma, out.data(), out.size()))) {
        bits = kHcIntXactErr | kHcIntChHltd;
      } else {
        Status s = device_->BulkOut(out.data(), out.size(), &extra_us);
        if (!Ok(s)) {
          bits = kHcIntXactErr | kHcIntChHltd;
        } else {
          done = out.size();
        }
      }
    }
    if (extra_us > 0) {
      cc.pending = clock_->ScheduleIn(extra_us, [this, ch, bits, done] {
        channels_[static_cast<size_t>(ch)].pending = SimClock::kInvalidEvent;
        FinishChannel(ch, bits, done);
      });
    } else {
      FinishChannel(ch, bits, done);
    }
  });
}

void Dwc2Controller::FinishChannel(int ch, uint32_t hcint_bits, size_t bytes_done) {
  Channel& c = channels_[static_cast<size_t>(ch)];
  c.hcchar &= ~kHcCharEna;
  c.hcint |= hcint_bits;
  uint32_t xfersize = c.hctsiz & kHcTsizXferSizeMask;
  uint32_t remaining = bytes_done >= xfersize ? 0 : xfersize - static_cast<uint32_t>(bytes_done);
  c.hctsiz = (c.hctsiz & ~kHcTsizXferSizeMask) | remaining;
  UpdateIrq();
}

void Dwc2Controller::UpdateIrq() {
  haint_ = 0;
  for (int ch = 0; ch < kNumChannels; ++ch) {
    const Channel& c = channels_[static_cast<size_t>(ch)];
    if ((c.hcint & c.hcintmsk) != 0 || (c.hcint != 0 && c.hcintmsk == 0)) {
      haint_ |= (1u << ch);
    }
  }
  if (haint_ != 0) {
    gintsts_ |= kGIntStsHcInt;
  } else {
    gintsts_ &= ~kGIntStsHcInt;
  }
  bool want = (gintsts_ & kGIntStsHcInt) != 0 &&
              (gintmsk_ == 0 || (gintmsk_ & kGIntStsHcInt) != 0);
  if (want) {
    irq_->Raise(irq_line_);
  } else {
    irq_->Clear(irq_line_);
  }
}

void Dwc2Controller::SoftReset() {
  for (auto& c : channels_) {
    if (c.pending != SimClock::kInvalidEvent) {
      clock_->Cancel(c.pending);
    }
    c = Channel{};
  }
  grstctl_ = 0;
  gintsts_ = 0;
  gintmsk_ = 0;
  haint_ = 0;
  haintmsk_ = 0;
  // Post-init clean slate: port powered and enabled, device configured at boot.
  hprt_ = kHPrtPwr | kHPrtEna;
  have_setup_ = false;
  irq_->Clear(irq_line_);
  if (device_ != nullptr) {
    device_->Reset();
  }
}

}  // namespace dlt
