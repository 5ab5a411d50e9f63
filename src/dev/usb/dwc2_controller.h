// USB host controller modelled after the DWC2 (Synopsys DesignWare) core used
// on the RPi3: host channels programmed via HCCHARn/HCTSIZn/HCDMAn, completion
// via HCINTn -> HAINT -> GINTSTS, port management via HPRT, and the HFNUM frame
// counter (the paper's example of a non-state-changing statistic input, §6.2.3).
#ifndef SRC_DEV_USB_DWC2_CONTROLLER_H_
#define SRC_DEV_USB_DWC2_CONTROLLER_H_

#include <array>

#include "src/dev/usb/usb_device_model.h"
#include "src/soc/address_space.h"
#include "src/soc/device.h"
#include "src/soc/irq.h"
#include "src/soc/latency_model.h"
#include "src/soc/sim_clock.h"

namespace dlt {

// Global registers.
inline constexpr uint64_t kGrstCtl = 0x010;
inline constexpr uint64_t kGIntSts = 0x014;
inline constexpr uint64_t kGIntMsk = 0x018;
inline constexpr uint64_t kHfNum = 0x408;
inline constexpr uint64_t kHaInt = 0x414;
inline constexpr uint64_t kHaIntMsk = 0x418;
inline constexpr uint64_t kHPrt = 0x440;
inline constexpr uint64_t kHcBase = 0x500;
inline constexpr uint64_t kHcStride = 0x20;

// GINTSTS bits.
inline constexpr uint32_t kGIntStsSof = 1u << 3;
inline constexpr uint32_t kGIntStsPrtInt = 1u << 24;
inline constexpr uint32_t kGIntStsHcInt = 1u << 25;

// GRSTCTL bits.
inline constexpr uint32_t kGrstCtlCoreRst = 1u << 0;

// HPRT bits.
inline constexpr uint32_t kHPrtConnSts = 1u << 0;
inline constexpr uint32_t kHPrtConnDet = 1u << 1;
inline constexpr uint32_t kHPrtEna = 1u << 2;
inline constexpr uint32_t kHPrtRst = 1u << 8;
inline constexpr uint32_t kHPrtPwr = 1u << 12;

// Per-channel register offsets (relative to the channel base).
inline constexpr uint64_t kHcChar = 0x00;
inline constexpr uint64_t kHcInt = 0x08;
inline constexpr uint64_t kHcIntMsk = 0x0c;
inline constexpr uint64_t kHcTsiz = 0x10;
inline constexpr uint64_t kHcDma = 0x14;

// HCCHAR fields.
inline constexpr uint32_t kHcCharEna = 1u << 31;
inline constexpr uint32_t kHcCharDis = 1u << 30;
inline constexpr uint32_t kHcCharEpDirIn = 1u << 15;
inline constexpr int kHcCharEpNumShift = 11;
inline constexpr uint32_t kHcCharEpNumMask = 0xf;
inline constexpr int kHcCharEpTypeShift = 18;
inline constexpr int kHcCharDevAddrShift = 22;

// HCINT bits.
inline constexpr uint32_t kHcIntXferCompl = 1u << 0;
inline constexpr uint32_t kHcIntChHltd = 1u << 1;
inline constexpr uint32_t kHcIntStall = 1u << 3;
inline constexpr uint32_t kHcIntNak = 1u << 4;
inline constexpr uint32_t kHcIntXactErr = 1u << 7;

// HCTSIZ fields.
inline constexpr uint32_t kHcTsizXferSizeMask = 0x7ffff;
inline constexpr int kHcTsizPktCntShift = 19;
inline constexpr uint32_t kHcTsizPktCntMask = 0x3ff;
inline constexpr int kHcTsizPidShift = 29;
inline constexpr uint32_t kHcTsizPidSetup = 3;

class Dwc2Controller : public MmioDevice {
 public:
  static constexpr int kNumChannels = 8;

  Dwc2Controller(AddressSpace* mem, SimClock* clock, InterruptController* irq,
                 const LatencyModel* lat, int irq_line);

  void AttachDevice(UsbDeviceModel* dev) { device_ = dev; }

  std::string_view name() const override { return "usb"; }
  uint32_t MmioRead32(uint64_t offset) override;
  void MmioWrite32(uint64_t offset, uint32_t value) override;
  void SoftReset() override;

  int irq_line() const { return irq_line_; }

 private:
  struct Channel {
    uint32_t hcchar = 0;
    uint32_t hcint = 0;
    uint32_t hcintmsk = 0;
    uint32_t hctsiz = 0;
    uint32_t hcdma = 0;
    SimClock::EventId pending = SimClock::kInvalidEvent;
  };

  void StartChannel(int ch);
  void FinishChannel(int ch, uint32_t hcint_bits, size_t bytes_done);
  void UpdateIrq();

  AddressSpace* mem_;
  SimClock* clock_;
  InterruptController* irq_;
  const LatencyModel* lat_;
  int irq_line_;
  UsbDeviceModel* device_ = nullptr;

  uint32_t grstctl_ = 0;
  uint32_t gintsts_ = 0;
  uint32_t gintmsk_ = 0;
  uint32_t haint_ = 0;
  uint32_t haintmsk_ = 0;
  uint32_t hprt_ = kHPrtPwr;
  std::array<Channel, kNumChannels> channels_;
  UsbSetup pending_setup_{};
  bool have_setup_ = false;
};

}  // namespace dlt

#endif  // SRC_DEV_USB_DWC2_CONTROLLER_H_
