#include "src/drv/dsi_display_driver.h"

#include "src/dev/display/display_controller.h"
#include "src/soc/log.h"

namespace dlt {

namespace {
constexpr uint64_t kVsyncTimeoutUs = 200'000;
}  // namespace

Status DsiDisplayDriver::Blit(const TValue& x, const TValue& y, const TValue& w, const TValue& h,
                              uint8_t* buf, size_t buf_len) {
  // Geometry validation: these branches become the template's selection
  // constraints, so at replay an empty or off-panel rectangle finds none.
  if (!io_->Branch(w, Cmp::kGt, TValue(0), DLT_HERE) ||
      !io_->Branch(h, Cmp::kGt, TValue(0), DLT_HERE)) {
    return Status::kInvalidArg;
  }
  if (!io_->Branch(x + w, Cmp::kLe, TValue(kPanelWidth), DLT_HERE) ||
      !io_->Branch(y + h, Cmp::kLe, TValue(kPanelHeight), DLT_HERE)) {
    return Status::kOutOfRange;
  }
  TValue bytes = w * h * TValue(4);
  if (buf_len < bytes.value()) {
    return Status::kInvalidArg;
  }

  // The controller must be enabled and not mid-scanout.
  TValue ctrl = io_->RegRead32(cfg_.display_device, kDispCtrl, DLT_HERE);
  if (!io_->Branch(ctrl & TValue(kDispCtrlEnable), Cmp::kEq, TValue(kDispCtrlEnable), DLT_HERE)) {
    return Status::kBadState;
  }
  TValue status = io_->RegRead32(cfg_.display_device, kDispStatus, DLT_HERE);
  if (!io_->Branch(status & TValue(kDispStatusBusy), Cmp::kEq, TValue(0), DLT_HERE)) {
    return Status::kBadState;
  }
  // Beam-position bookkeeping (tear avoidance in the full driver): a statistic
  // input, never branched on — not state-changing.
  (void)io_->RegRead32(cfg_.display_device, kDispScanline, DLT_HERE);

  TValue fb = io_->DmaAlloc(bytes, DLT_HERE);
  if (!io_->Branch(fb, Cmp::kNe, TValue(0), DLT_HERE)) {
    return Status::kNoMemory;
  }
  io_->CopyToDma(fb, buf, TValue(0), bytes, DLT_HERE);

  io_->RegWrite32(cfg_.display_device, kDispFbAddr, fb, DLT_HERE);
  io_->RegWrite32(cfg_.display_device, kDispStride, w * TValue(4), DLT_HERE);
  io_->RegWrite32(cfg_.display_device, kDispGeom, w | (h << TValue(16)), DLT_HERE);
  io_->RegWrite32(cfg_.display_device, kDispPos, x | (y << TValue(16)), DLT_HERE);
  io_->RegWrite32(cfg_.display_device, kDispCommit, TValue(1), DLT_HERE);

  Status s = io_->WaitForIrq(cfg_.vsync_irq, kVsyncTimeoutUs, DLT_HERE);
  if (!Ok(s)) {
    return s;
  }
  TValue done = io_->RegRead32(cfg_.display_device, kDispStatus, DLT_HERE);
  if (!io_->Branch(done & TValue(kDispStatusVsync), Cmp::kEq, TValue(kDispStatusVsync),
                   DLT_HERE)) {
    return Status::kIoError;
  }
  io_->RegWrite32(cfg_.display_device, kDispStatus, TValue(kDispStatusVsync), DLT_HERE);
  io_->DmaReleaseAll(DLT_HERE);
  return Status::kOk;
}

}  // namespace dlt
