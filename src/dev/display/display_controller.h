// Display controller model (DSI-panel-like), the substrate for the paper's
// third secure-IO use case: trusted UI — "trustlets render to screen
// security-sensitive contents, such as service verification codes and bank
// account information" (§2.1), with the display controller isolated in the TEE
// (the Rushmore-style point solution the paper generalizes over, ref [43]).
//
// Programming model: the driver points DISP_FB at a framebuffer in DMA memory,
// sets the blit geometry, and kicks DISP_COMMIT; the controller bus-masters the
// pixels into its internal panel during the next scanout and raises a vsync
// interrupt. Pixels are 32-bit XRGB.
#ifndef SRC_DEV_DISPLAY_DISPLAY_CONTROLLER_H_
#define SRC_DEV_DISPLAY_DISPLAY_CONTROLLER_H_

#include <vector>

#include "src/soc/address_space.h"
#include "src/soc/device.h"
#include "src/soc/irq.h"
#include "src/soc/latency_model.h"
#include "src/soc/sim_clock.h"

namespace dlt {

// Register offsets.
inline constexpr uint64_t kDispCtrl = 0x00;     // bit0: controller enable
inline constexpr uint64_t kDispStatus = 0x04;   // bit0: vsync done (W1C), bit4: busy
inline constexpr uint64_t kDispFbAddr = 0x08;   // physical framebuffer base
inline constexpr uint64_t kDispGeom = 0x0c;     // blit w | h<<16 (pixels)
inline constexpr uint64_t kDispPos = 0x10;      // blit x | y<<16 (panel coords)
inline constexpr uint64_t kDispStride = 0x14;   // framebuffer stride in bytes
inline constexpr uint64_t kDispCommit = 0x18;   // write 1: latch + scan out
inline constexpr uint64_t kDispScanline = 0x1c; // free-running beam position (statistic)

inline constexpr uint32_t kDispCtrlEnable = 0x1;
inline constexpr uint32_t kDispStatusVsync = 0x1;
inline constexpr uint32_t kDispStatusBusy = 0x10;

inline constexpr uint32_t kPanelWidth = 800;
inline constexpr uint32_t kPanelHeight = 480;

class DisplayController : public MmioDevice {
 public:
  DisplayController(AddressSpace* mem, SimClock* clock, InterruptController* irq,
                    const LatencyModel* lat, int irq_line);

  std::string_view name() const override { return "display"; }
  uint32_t MmioRead32(uint64_t offset) override;
  void MmioWrite32(uint64_t offset, uint32_t value) override;
  void SoftReset() override;

  int irq_line() const { return irq_line_; }

  // Panel introspection for validation (what a camera pointed at the screen
  // would see).
  uint32_t PanelPixel(uint32_t x, uint32_t y) const;
  uint64_t commits() const { return commits_; }

 private:
  void Commit();

  AddressSpace* mem_;
  SimClock* clock_;
  InterruptController* irq_;
  const LatencyModel* lat_;
  int irq_line_;

  uint32_t ctrl_ = 0;
  uint32_t status_ = 0;
  uint32_t fb_addr_ = 0;
  uint32_t geom_ = 0;
  uint32_t pos_ = 0;
  uint32_t stride_ = 0;
  // kPanelWidth x kPanelHeight pixels, allocated by the first completed blit
  // (1.5 MB that a board which never draws does not pay); black until then.
  std::vector<uint32_t> panel_;
  SimClock::EventId pending_ = SimClock::kInvalidEvent;
  uint64_t commits_ = 0;
};

}  // namespace dlt

#endif  // SRC_DEV_DISPLAY_DISPLAY_CONTROLLER_H_
