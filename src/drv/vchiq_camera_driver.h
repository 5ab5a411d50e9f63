// Gold camera driver over VCHIQ/MMAL: allocates and initializes the slot-based
// message queue, hands it to VC4 via MBOX_WRITE, performs the connect/open
// handshake, configures the camera component, and captures frames through the
// buffer-done + bulk-receive protocol (paper §6.3). Supports two capture modes:
//   serial    — one outstanding request, per-message IRQ waits; this is the mode
//               record campaigns use ("disabling irq coalescing, concurrent
//               jobs", §3.2) and hence what driverlets replay;
//   pipelined — the native streaming path: capture requests stay ahead of
//               completions and interrupts coalesce (§7.3.2 Camera).
#ifndef SRC_DRV_VCHIQ_CAMERA_DRIVER_H_
#define SRC_DRV_VCHIQ_CAMERA_DRIVER_H_

#include "src/dev/vc4/vchiq_proto.h"
#include "src/record/driver_io.h"

namespace dlt {

class VchiqCameraDriver {
 public:
  struct Config {
    uint16_t vchiq_device = 0;  // machine device id of the mailbox/VC4
    int bell_irq = 0;
    bool pipelined = false;  // native streaming mode
  };

  VchiqCameraDriver(DriverIo* io, const Config& config) : io_(io), cfg_(config) {}

  // The recordable entry: replay_camera(frame, resolution, buf, buf_size, img_size).
  // Captures |frame| frames at |resolution|p; each frame lands in |buf| (the
  // caller consumes between frames in a real deployment); the last frame's size
  // is stored into |img_size_out| (4 bytes).
  Status Capture(const TValue& frame, const TValue& resolution, uint8_t* buf, size_t buf_cap,
                 const TValue& buf_size, uint8_t* img_size_out);

  uint64_t captures() const { return captures_; }

 private:
  Status QueueInit();
  Status Handshake();
  Status ConfigureCamera(const TValue& resolution);
  // Appends a message to the slave region and rings BELL2.
  void SendMessage(VchiqMsgType type, const TValue* words, uint32_t nwords);
  void SendMmal(MmalMsgType type, const TValue& a, const TValue& b);
  // Waits (IRQ + poll on master_tx_pos) for the next VC4 message; returns the
  // payload base address expression. Serial mode only.
  Status WaitMessage(TValue* payload_addr, TValue* msgid);
  Status WaitMmalReply(MmalMsgType expect);

  DriverIo* io_;
  Config cfg_;
  TValue queue_;            // slot memory base (dma symbol)
  uint32_t slave_tx_ = 0;   // our write cursor into the slave region
  uint32_t master_rx_ = 0;  // how far we have parsed the master region
  uint64_t captures_ = 0;
};

}  // namespace dlt

#endif  // SRC_DRV_VCHIQ_CAMERA_DRIVER_H_
