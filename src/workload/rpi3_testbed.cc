#include "src/workload/rpi3_testbed.h"

#include "src/soc/log.h"

namespace dlt {

Rpi3Testbed::Rpi3Testbed(const TestbedOptions& opts) {
  LatencyModel& lat = machine_.latency();

  mmc_ = std::make_unique<MmcController>(&machine_.clock(), &machine_.irq(), &lat, &sd_card_,
                                         kMmcIrq);
  usb_ = std::make_unique<Dwc2Controller>(&machine_.mem(), &machine_.clock(), &machine_.irq(),
                                          &lat, kUsbIrq);
  usb_storage_ = std::make_unique<UsbMassStorage>(&usb_medium_, &lat);
  usb_->AttachDevice(usb_storage_.get());
  vc4_ = std::make_unique<Vc4Firmware>(&machine_.mem(), &machine_.clock(), &machine_.irq(), &lat,
                                       kMailboxIrq);
  display_ = std::make_unique<DisplayController>(&machine_.mem(), &machine_.clock(),
                                                 &machine_.irq(), &lat, kDisplayIrq);
  touch_ = std::make_unique<TouchController>(&machine_.clock(), &machine_.irq(), kTouchIrq);
  uart_ = std::make_unique<UartController>(&machine_.clock(), &machine_.irq(), kUartIrq);
  ftpm_ = std::make_unique<FtpmDevice>(&machine_.clock(), &machine_.irq(), &lat, kFtpmIrq);
  cryptoacc_ = std::make_unique<CryptoaccDevice>(&machine_.mem(), &machine_.clock(),
                                                 &machine_.irq(), &lat, kCryptoIrq);

  mmc_id_ = *machine_.AttachDevice(kMmcBase, kMmcSize, mmc_.get());
  usb_id_ = *machine_.AttachDevice(kUsbBase, kUsbSize, usb_.get());
  vchiq_id_ = *machine_.AttachDevice(kMailboxBase, kMailboxSize, vc4_.get());
  display_id_ = *machine_.AttachDevice(kDisplayBase, kDisplaySize, display_.get());
  touch_id_ = *machine_.AttachDevice(kTouchBase, kTouchSize, touch_.get());
  uart_id_ = *machine_.AttachDevice(kUartBase, kUartSize, uart_.get());
  ftpm_id_ = *machine_.AttachDevice(kFtpmBase, kFtpmSize, ftpm_.get());
  crypto_id_ = *machine_.AttachDevice(kCryptoBase, kCryptoSize, cryptoacc_.get());
  machine_.dma().RegisterDataPort(kMmcBase + kSdData, mmc_.get());

  kern_io_ = std::make_unique<PassthroughIo>(&machine_, &kern_pool_, World::kNormal);
  tee_ = std::make_unique<SecureWorld>(&machine_);

  mmc_cfg_ = BcmSdhostDriver::Config{
      .mmc_device = mmc_id_,
      .dma_device = dma_id(),
      .mmc_irq = kMmcIrq,
      .dma_channel = 15,  // the paper reserves the 15th DMA channel (§6.1.2)
      .dma_irq = kDmaIrqBase + 15,
      .data_port = kMmcBase + kSdData,
      .max_sectors = kSdSectors,
      .sched_per_page_us = 35,
  };
  usb_cfg_ = Dwc2StorageDriver::Config{
      .usb_device = usb_id_,
      .usb_irq = kUsbIrq,
      .channel = 1,
      .max_sectors = kUsbSectors,
      .sched_per_page_us = lat.usb_sched_per_page_us,
  };
  cam_cfg_ = VchiqCameraDriver::Config{
      .vchiq_device = vchiq_id_,
      .bell_irq = kMailboxIrq,
      .pipelined = opts.pipelined_camera,
  };
  display_cfg_ = DsiDisplayDriver::Config{
      .display_device = display_id_,
      .vsync_irq = kDisplayIrq,
  };
  touch_cfg_ = TouchDriver::Config{
      .touch_device = touch_id_,
      .touch_irq = kTouchIrq,
  };
  ftpm_cfg_ = FtpmDriver::Config{
      .ftpm_device = ftpm_id_,
      .ftpm_irq = kFtpmIrq,
  };
  crypto_cfg_ = CryptoaccDriver::Config{
      .crypto_device = crypto_id_,
      .crypto_irq = kCryptoIrq,
  };
  mmc_driver_ = std::make_unique<BcmSdhostDriver>(kern_io_.get(), mmc_cfg_);
  usb_driver_ = std::make_unique<Dwc2StorageDriver>(kern_io_.get(), usb_cfg_);
  cam_driver_ = std::make_unique<VchiqCameraDriver>(kern_io_.get(), cam_cfg_);
  touch_driver_ = std::make_unique<TouchDriver>(kern_io_.get(), touch_cfg_);
  ftpm_driver_ = std::make_unique<FtpmDriver>(kern_io_.get(), ftpm_cfg_);

  if (opts.probe_drivers && !opts.secure_io) {
    Status s = mmc_driver_->Probe();
    if (!Ok(s)) {
      DLT_LOG(kError) << "MMC probe failed: " << StatusName(s);
    }
    s = usb_driver_->Probe();
    if (!Ok(s)) {
      DLT_LOG(kError) << "USB probe failed: " << StatusName(s);
    }
    kern_pool_.ReleaseAll();
  } else {
    // Deployment machine: devices start from the post-boot clean state.
    ResetDevices();
  }

  if (opts.secure_io) {
    // Firmware (patched ATF in the paper, §7.3.1) assigns whole instances to
    // the TEE; the TEE then maps them.
    (void)machine_.AssignToSecureWorld(mmc_id_);
    (void)machine_.AssignToSecureWorld(usb_id_);
    (void)machine_.AssignToSecureWorld(vchiq_id_);
    (void)machine_.AssignToSecureWorld(display_id_);
    (void)machine_.AssignToSecureWorld(touch_id_);
    (void)machine_.AssignToSecureWorld(uart_id_);
    (void)machine_.AssignToSecureWorld(ftpm_id_);
    (void)machine_.AssignToSecureWorld(crypto_id_);
    (void)machine_.AssignToSecureWorld(dma_id());
    (void)tee_->MapDevice(mmc_id_);
    (void)tee_->MapDevice(usb_id_);
    (void)tee_->MapDevice(vchiq_id_);
    (void)tee_->MapDevice(display_id_);
    (void)tee_->MapDevice(touch_id_);
    (void)tee_->MapDevice(uart_id_);
    (void)tee_->MapDevice(ftpm_id_);
    (void)tee_->MapDevice(crypto_id_);
    (void)tee_->MapDevice(dma_id());
  }
}

std::optional<uint64_t> Rpi3Testbed::DeviceStateDigest(uint16_t id) const {
  Result<Machine::DeviceEntry> e = machine_.DeviceById(id);
  return e.ok() ? e->dev->StateDigest() : std::nullopt;
}

void Rpi3Testbed::ResetDevices() {
  mmc_->SoftReset();
  usb_->SoftReset();
  vc4_->SoftReset();
  display_->SoftReset();
  touch_->SoftReset();
  uart_->SoftReset();
  ftpm_->SoftReset();
  cryptoacc_->SoftReset();
}

}  // namespace dlt
