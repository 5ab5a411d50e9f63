// VC4 multimedia accelerator model: the "GPU side" of VCHIQ. Exposes only the
// mailbox/doorbell MMIO window (the paper found just 3 registers in use, §6.3.3);
// everything else happens through the shared-memory slot queue. Implements an
// MMAL-ish camera service that produces deterministic synthetic JPEG frames.
// The model holds no frame bytes: a bulk transfer's completion is a deferred
// AddressSpace::DmaFill, so its frame is generated straight into the buffer
// that reads it.
#ifndef SRC_DEV_VC4_VC4_FIRMWARE_H_
#define SRC_DEV_VC4_VC4_FIRMWARE_H_

#include <optional>
#include <vector>

#include "src/dev/vc4/vchiq_proto.h"
#include "src/soc/address_space.h"
#include "src/soc/device.h"
#include "src/soc/irq.h"
#include "src/soc/latency_model.h"
#include "src/soc/sim_clock.h"

namespace dlt {

class Vc4Firmware : public MmioDevice {
 public:
  Vc4Firmware(AddressSpace* mem, SimClock* clock, InterruptController* irq,
              const LatencyModel* lat, int irq_line);

  std::string_view name() const override { return "vchiq"; }
  uint32_t MmioRead32(uint64_t offset) override;
  void MmioWrite32(uint64_t offset, uint32_t value) override;
  void SoftReset() override;
  std::optional<uint64_t> StateDigest() const override;

  int irq_line() const { return irq_line_; }

  // Fault injection: the image sensor losing its connection (paper §3.3 cause 3).
  void set_sensor_connected(bool c) { sensor_connected_ = c; }

  uint64_t frames_produced() const { return frames_produced_; }

  // Deterministic synthetic JPEG produced for (sequence, resolution); exposed so
  // validation scripts can re-derive expected frame contents. A frame is
  // FrameBytes(resolution) bytes: SOI + APP0 markers, a counter-based payload
  // with no 0xff byte, then EOI. A bulk transfer of n bytes delivers the
  // frame's first n bytes.
  static std::vector<uint8_t> MakeFrame(uint32_t seq, uint32_t resolution);
  static uint32_t FrameBytes(uint32_t resolution);

 private:
  // A frame from its capture until its bulk transfer completes.
  struct Frame {
    uint32_t seq;
    uint32_t res;
    uint32_t dest = 0;  // set by the BULK_RX that takes the frame
    uint32_t n = 0;
  };
  std::vector<Frame>::iterator FrameOf(uint32_t seq);

  void RingVc4();
  void ProcessQueue();
  void HandleMessage(uint32_t msgid, const uint8_t* payload, uint32_t size);
  void HandleMmal(const uint8_t* payload, uint32_t size);
  void PostMessage(VchiqMsgType type, const uint32_t* words, uint32_t nwords);
  void PostMmalReply(MmalMsgType type, uint32_t a, uint32_t b);
  void RingCpu();
  void ScheduleFrameDone(uint64_t cost_us, uint32_t seq);
  void CompleteBulkRx(uint32_t seq);

  uint32_t QRead32(uint32_t offset);
  void QWrite32(uint32_t offset, uint32_t value);

  AddressSpace* mem_;
  SimClock* clock_;
  InterruptController* irq_;
  const LatencyModel* lat_;
  int irq_line_;

  uint32_t queue_base_ = 0;  // physical base of the slot memory (0 = not set)
  bool connected_ = false;
  bool port_open_ = false;
  bool component_created_ = false;
  bool component_enabled_ = false;
  bool port_enabled_ = false;
  bool sensor_connected_ = true;
  bool camera_inited_ = false;  // first capture pays the sensor init cost
  bool capture_in_flight_ = false;
  bool capture_streaming_ = false;  // back-to-back captures keep the sensor streaming
  uint32_t resolution_ = 0;
  uint32_t slave_rx_pos_ = 0;  // how far VC4 has parsed the slave region
  uint32_t master_tx_ = 0;     // VC4-side write cursor (published to slot 0 lazily)
  uint32_t bell0_pending_ = 0;

  std::vector<Frame> frames_;  // captured and not yet transferred, this epoch
  // The frame BUFFER_DONE announced, until a BULK_RX takes it: the one frame
  // buffer the CPU owns.
  struct Ready {
    uint32_t seq;
    uint32_t res;
  };
  std::optional<Ready> ready_;
  uint32_t frame_seq_ = 0;
  uint64_t frames_produced_ = 0;
  // Bumped by SoftReset. Every scheduled callback captures it and does nothing
  // once it has moved on. Captures stay within 16 bytes (this + two u32s) so
  // std::function stores them inline and scheduling allocates nothing.
  uint32_t epoch_ = 0;
};

}  // namespace dlt

#endif  // SRC_DEV_VC4_VC4_FIRMWARE_H_
