// Gold touch-input driver: waits for a press sample and delivers the packed
// (x, y, pressed) word to the caller. Recordable entry: replay_touch(evt).
#ifndef SRC_DRV_TOUCH_DRIVER_H_
#define SRC_DRV_TOUCH_DRIVER_H_

#include "src/record/driver_io.h"

namespace dlt {

class TouchDriver {
 public:
  struct Config {
    uint16_t touch_device = 0;
    int touch_irq = 0;
  };

  TouchDriver(DriverIo* io, const Config& config) : io_(io), cfg_(config) {}

  // Blocks (up to |timeout_us|) for the next sample; writes the 4-byte packed
  // sample into |evt_out|.
  Status ReadEvent(uint8_t* evt_out, uint64_t timeout_us = 5'000'000);

 private:
  DriverIo* io_;
  Config cfg_;
};

}  // namespace dlt

#endif  // SRC_DRV_TOUCH_DRIVER_H_
