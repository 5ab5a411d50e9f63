// Gold display driver: renders a caller-provided XRGB bitmap to given panel
// coordinates — exactly the trusted-UI primitive the paper motivates
// ("rendering given bitmaps or vector paths to given screen coordinates",
// §2.1). The recordable entry is replay_display(x, y, w, h, buf).
#ifndef SRC_DRV_DSI_DISPLAY_DRIVER_H_
#define SRC_DRV_DSI_DISPLAY_DRIVER_H_

#include "src/record/driver_io.h"

namespace dlt {

class DsiDisplayDriver {
 public:
  struct Config {
    uint16_t display_device = 0;
    int vsync_irq = 0;
  };

  DsiDisplayDriver(DriverIo* io, const Config& config) : io_(io), cfg_(config) {}

  // Blits a w x h bitmap (tightly packed 32-bit XRGB) to panel position (x, y).
  Status Blit(const TValue& x, const TValue& y, const TValue& w, const TValue& h, uint8_t* buf,
              size_t buf_len);

 private:
  DriverIo* io_;
  Config cfg_;
};

}  // namespace dlt

#endif  // SRC_DRV_DSI_DISPLAY_DRIVER_H_
