#include "src/dev/display/display_controller.h"

#include "src/soc/log.h"

namespace dlt {

DisplayController::DisplayController(AddressSpace* mem, SimClock* clock, InterruptController* irq,
                                     const LatencyModel* lat, int irq_line)
    : mem_(mem),
      clock_(clock),
      irq_(irq),
      lat_(lat),
      irq_line_(irq_line) {}

uint32_t DisplayController::MmioRead32(uint64_t offset) {
  switch (offset) {
    case kDispCtrl: return ctrl_;
    case kDispStatus: return status_;
    case kDispFbAddr: return fb_addr_;
    case kDispGeom: return geom_;
    case kDispPos: return pos_;
    case kDispStride: return stride_;
    case kDispScanline:
      // Free-running beam position: a time-derived statistic input (like the
      // USB HFNUM) that differs between record and replay runs.
      return static_cast<uint32_t>((clock_->now_us() / 21) % kPanelHeight);
    default:
      return 0;
  }
}

void DisplayController::MmioWrite32(uint64_t offset, uint32_t value) {
  switch (offset) {
    case kDispCtrl: ctrl_ = value; break;
    case kDispStatus:
      status_ &= ~(value & kDispStatusVsync);  // W1C
      if (!(status_ & kDispStatusVsync)) {
        irq_->Clear(irq_line_);
      }
      break;
    case kDispFbAddr: fb_addr_ = value; break;
    case kDispGeom: geom_ = value; break;
    case kDispPos: pos_ = value; break;
    case kDispStride: stride_ = value; break;
    case kDispCommit:
      if ((value & 1) && (ctrl_ & kDispCtrlEnable)) {
        Commit();
      }
      break;
    default:
      break;
  }
}

void DisplayController::Commit() {
  uint32_t w = geom_ & 0xffff;
  uint32_t h = geom_ >> 16;
  uint32_t x = pos_ & 0xffff;
  uint32_t y = pos_ >> 16;
  if (w == 0 || h == 0 || x + w > kPanelWidth || y + h > kPanelHeight) {
    return;  // blit rejected; no vsync completion -> the driver's wait times out
  }
  status_ |= kDispStatusBusy;
  ++commits_;
  uint32_t fb = fb_addr_;
  uint32_t stride = stride_ == 0 ? w * 4 : stride_;
  // Scanout latency: one frame period (60 Hz) plus DMA time for the pixels.
  uint64_t scan_us = 16'667 + (static_cast<uint64_t>(w) * h * 4 * lat_->dma_per_kb_us) / 1024;
  pending_ = clock_->ScheduleIn(scan_us, [this, w, h, x, y, fb, stride] {
    pending_ = SimClock::kInvalidEvent;
    if (panel_.empty()) {
      panel_.assign(static_cast<size_t>(kPanelWidth) * kPanelHeight, 0);
    }
    std::vector<uint32_t> row(w);
    for (uint32_t r = 0; r < h; ++r) {
      if (!Ok(mem_->DmaRead(fb + static_cast<uint64_t>(r) * stride, row.data(),
                            static_cast<size_t>(w) * 4))) {
        break;
      }
      std::copy(row.begin(), row.end(),
                panel_.begin() + (static_cast<size_t>(y + r) * kPanelWidth + x));
    }
    status_ &= ~kDispStatusBusy;
    status_ |= kDispStatusVsync;
    irq_->Raise(irq_line_);
  });
}

uint32_t DisplayController::PanelPixel(uint32_t x, uint32_t y) const {
  if (x >= kPanelWidth || y >= kPanelHeight || panel_.empty()) {
    return 0;
  }
  return panel_[static_cast<size_t>(y) * kPanelWidth + x];
}

void DisplayController::SoftReset() {
  if (pending_ != SimClock::kInvalidEvent) {
    clock_->Cancel(pending_);
    pending_ = SimClock::kInvalidEvent;
  }
  // Post-init clean slate: controller enabled (the boot splash left it on),
  // panel content preserved (it is the physical screen).
  ctrl_ = kDispCtrlEnable;
  status_ = 0;
  fb_addr_ = 0;
  geom_ = 0;
  pos_ = 0;
  stride_ = 0;
  irq_->Clear(irq_line_);
}

}  // namespace dlt
