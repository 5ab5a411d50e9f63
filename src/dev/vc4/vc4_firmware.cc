#include "src/dev/vc4/vc4_firmware.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/dev/vc4/frame_payload.h"
#include "src/soc/log.h"

namespace dlt {

namespace {

uint32_t Pad8(uint32_t n) { return (n + 7) & ~7u; }

constexpr uint64_t kGolden64 = 0x9e3779b97f4a7c15ull;

// Payload words are memcpy'd into the frame and defined as little-endian.
static_assert(std::endian::native == std::endian::little);

// Eight payload words, one per lane.
using Words8 = uint64_t __attribute__((vector_size(64)));

// The helpers below work in place on a word or lane-wise on a Words8. They
// take it by reference: a vector passed or returned by value has a different
// ABI in each per-CPU instance, and GCC warns about that (-Wpsabi).

// splitmix64 finalizer: a bijective 64-bit mix.
template <typename W>
[[gnu::always_inline]] inline void Mix64(W& z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
}

// Turns every 0xff byte of |z| into 0xfe and leaves the others alone, so the
// payload never embeds a JPEG marker prefix. A byte of ~z is zero exactly
// where z has 0xff; the add cannot carry across bytes (0x7f + 0x7f < 0x100).
template <typename W>
[[gnu::always_inline]] inline void ClearFfBytes(W& z) {
  constexpr uint64_t k7f = 0x7f7f7f7f7f7f7f7full;
  W t = ~z;
  W ff = ~(((t & k7f) + k7f) | t | k7f);  // 0x80 in each 0xff byte of z
  z ^= ff >> 7;
}

// Writes |len| payload bytes to |dst|. Word k is ClearFfBytes(Mix64(key +
// (k + 1)·γ)); the last word may be cut short to its low bytes. Blocks of
// eight words go through one Words8, lane j holding word 8b + j; the scalar
// loop writes what is left. The counter stays a scalar: without AVX-512 a
// Words8 has no register, and a vector counter carried across blocks goes
// through the stack each time, which makes the AVX2 instance slower than the
// scalar loop.
[[gnu::always_inline]] inline void WritePayload(uint64_t key, uint8_t* dst, size_t len) {
  constexpr Words8 kLanes = {1, 2, 3, 4, 5, 6, 7, 8};
  size_t blocks = len / 64;
  uint64_t ctr = key;
  for (size_t b = 0; b < blocks; ++b) {
    Words8 z = ctr + kLanes * kGolden64;
    Mix64(z);
    ClearFfBytes(z);
    std::memcpy(dst + 64 * b, &z, 64);
    ctr += 8 * kGolden64;
  }
  size_t i = 64 * blocks;
  for (; i + 8 <= len; i += 8) {
    ctr += kGolden64;
    uint64_t z = ctr;
    Mix64(z);
    ClearFfBytes(z);
    std::memcpy(dst + i, &z, 8);
  }
  if (i < len) {
    uint64_t z = ctr + kGolden64;
    Mix64(z);
    ClearFfBytes(z);
    std::memcpy(dst + i, &z, len - i);  // the word's low bytes
  }
}

// One instance of WritePayload per CPU level, listed by
// SupportedPayloadWriters and picked by hand: target_clones' ifunc resolver
// runs before main, where a TSan build crashes.
#if defined(__x86_64__)
[[gnu::target("arch=x86-64-v4")]] void WritePayloadV4(uint64_t key, uint8_t* dst, size_t len) {
  WritePayload(key, dst, len);
}
[[gnu::target("arch=x86-64-v3")]] void WritePayloadV3(uint64_t key, uint8_t* dst, size_t len) {
  WritePayload(key, dst, len);
}
#endif
void WritePayloadBaseline(uint64_t key, uint8_t* dst, size_t len) { WritePayload(key, dst, len); }

struct Resolution {
  uint32_t w;
  uint32_t h;
};

bool LookupResolution(uint32_t res, Resolution* out) {
  switch (res) {
    case 720: *out = {1280, 720}; return true;
    case 1080: *out = {1920, 1080}; return true;
    case 1440: *out = {2560, 1440}; return true;
    default: return false;
  }
}

}  // namespace

std::span<const PayloadWriterInstance> SupportedPayloadWriters() {
  static const std::vector<PayloadWriterInstance> supported = [] {
    std::vector<PayloadWriterInstance> w;
#if defined(__x86_64__)
    if (__builtin_cpu_supports("x86-64-v4")) {
      w.push_back({"x86-64-v4", WritePayloadV4});  // AVX-512: one Words8 is one register
    }
    if (__builtin_cpu_supports("x86-64-v3")) {
      w.push_back({"x86-64-v3", WritePayloadV3});  // AVX2: two registers, 64-bit multiplies emulated
    }
#endif
    w.push_back({"baseline", WritePayloadBaseline});
    return w;
  }();
  return supported;
}

void WriteFrameRange(uint32_t seq, uint32_t resolution, size_t off, uint8_t* dst, size_t len,
                     PayloadWriter write) {
  if (len == 0) {
    return;
  }
  static constexpr uint8_t kSoiApp0[4] = {0xff, 0xd8, 0xff, 0xe0};  // JPEG SOI + APP0
  static constexpr uint8_t kEoi[2] = {0xff, 0xd9};
  const size_t end = off + len;
  const size_t eoi = Vc4Firmware::FrameBytes(resolution) - 2;  // the payload is [4, eoi)
  for (size_t i = off; i < std::min<size_t>(end, 4); ++i) {
    dst[i - off] = kSoiApp0[i];
  }
  // Counter-based payload: word k depends only on (seq, resolution, k). The
  // key is mixed so that no two (seq, resolution) streams are shifted copies
  // of each other, which a linear key would make them.
  const size_t from = std::max<size_t>(off, 4);
  const size_t to = std::min(end, eoi);
  if (from < to) {
    uint64_t key = uint64_t{seq} << 32 | resolution;
    Mix64(key);
    // Word k is the writer's word 0 under key + k·γ. A range that starts
    // mid-word takes the tail of that word from a local copy of it.
    uint64_t word = (from - 4) / 8;
    size_t skip = (from - 4) % 8;
    uint8_t* out = dst + (from - off);
    size_t left = to - from;
    if (skip != 0) {
      uint8_t first[8];
      write(key + word * kGolden64, first, 8);
      size_t take = std::min(left, 8 - skip);
      std::memcpy(out, first + skip, take);
      out += take;
      left -= take;
      ++word;
    }
    write(key + word * kGolden64, out, left);
  }
  for (size_t i = std::max(off, eoi); i < end; ++i) {
    dst[i - off] = kEoi[i - eoi];
  }
}

Vc4Firmware::Vc4Firmware(AddressSpace* mem, SimClock* clock, InterruptController* irq,
                         const LatencyModel* lat, int irq_line)
    : mem_(mem), clock_(clock), irq_(irq), lat_(lat), irq_line_(irq_line) {}

uint32_t Vc4Firmware::FrameBytes(uint32_t resolution) {
  Resolution r{};
  if (!LookupResolution(resolution, &r)) {
    return 0;
  }
  // ~2/3 byte per pixel of "JPEG": 1080p lands in the paper's 1-2 MB range (§7.4).
  return r.w * r.h * 2 / 3;
}

std::vector<uint8_t> Vc4Firmware::MakeFrame(uint32_t seq, uint32_t resolution) {
  std::vector<uint8_t> f(FrameBytes(resolution));
  WriteFrameRange(seq, resolution, 0, f.data(), f.size(), SupportedPayloadWriters().front().write);
  return f;
}

std::vector<Vc4Firmware::Frame>::iterator Vc4Firmware::FrameOf(uint32_t seq) {
  // Sequence numbers are unique within an epoch, and a frame leaves the list
  // only when its transfer completes, so the current epoch's callbacks always
  // find theirs.
  return std::find_if(frames_.begin(), frames_.end(), [seq](const Frame& f) { return f.seq == seq; });
}

uint32_t Vc4Firmware::QRead32(uint32_t offset) {
  uint32_t v = 0;
  if (queue_base_ != 0) {
    (void)mem_->DmaRead(queue_base_ + offset, &v, 4);
  }
  return v;
}

void Vc4Firmware::QWrite32(uint32_t offset, uint32_t value) {
  if (queue_base_ != 0) {
    (void)mem_->DmaWrite(queue_base_ + offset, &value, 4);
  }
}

uint32_t Vc4Firmware::MmioRead32(uint64_t offset) {
  switch (offset) {
    case kBell0: {
      uint32_t v = bell0_pending_;
      bell0_pending_ = 0;
      irq_->Clear(irq_line_);
      return v;
    }
    case kMboxStatus:
      return 0;  // never full/empty in this model
    case kMboxRead:
      return 0;
    default:
      return 0;
  }
}

void Vc4Firmware::MmioWrite32(uint64_t offset, uint32_t value) {
  switch (offset) {
    case kMboxWrite:
      queue_base_ = value;
      slave_rx_pos_ = 0;
      break;
    case kBell2:
      RingVc4();
      break;
    default:
      break;
  }
}

void Vc4Firmware::RingVc4() {
  clock_->ScheduleIn(lat_->vchiq_msg_us, [this, epoch = epoch_] {
    if (epoch == epoch_) {
      ProcessQueue();
    }
  });
}

void Vc4Firmware::ProcessQueue() {
  if (queue_base_ == 0) {
    return;
  }
  uint32_t tx = QRead32(kSzSlaveTxPos);
  while (slave_rx_pos_ + kMsgHdrBytes <= tx && slave_rx_pos_ + kMsgHdrBytes <= kVchiqSlaveBytes) {
    uint32_t base = kVchiqSlaveBase + slave_rx_pos_;
    uint32_t msgid = QRead32(base);
    uint32_t size = QRead32(base + 4);
    if (size > kVchiqSlotSize) {
      break;  // malformed
    }
    std::vector<uint8_t> payload(size);
    if (size > 0) {
      (void)mem_->DmaRead(queue_base_ + base + kMsgHdrBytes, payload.data(), size);
    }
    slave_rx_pos_ += kMsgHdrBytes + Pad8(size);
    HandleMessage(msgid, payload.data(), size);
  }
}

void Vc4Firmware::PostMessage(VchiqMsgType type, const uint32_t* words, uint32_t nwords) {
  uint32_t size = nwords * 4;
  if (master_tx_ + kMsgHdrBytes + Pad8(size) > kVchiqMasterBytes) {
    DLT_LOG(kWarn) << "vchiq master region full";
    return;
  }
  uint32_t base = kVchiqMasterBase + master_tx_;
  QWrite32(base, static_cast<uint32_t>(type) << kMsgTypeShift);
  QWrite32(base + 4, size);
  for (uint32_t i = 0; i < nwords; ++i) {
    QWrite32(base + kMsgHdrBytes + i * 4, words[i]);
  }
  master_tx_ += kMsgHdrBytes + Pad8(size);
  // The write cursor becomes visible to the CPU slightly after the doorbell:
  // VC4 batches its slot-zero sync (the "sync thread" of §6.3.3). This is why
  // the CPU-side slot handler actively polls after taking the interrupt.
  clock_->ScheduleIn(lat_->vchiq_msg_us / 2 + 40, [this, epoch = epoch_, publish = master_tx_] {
    if (epoch == epoch_) {
      QWrite32(kSzMasterTxPos, publish);
    }
  });
}

void Vc4Firmware::PostMmalReply(MmalMsgType type, uint32_t a, uint32_t b) {
  uint32_t words[3] = {static_cast<uint32_t>(type) | kMmalReplyFlag, a, b};
  PostMessage(VchiqMsgType::kData, words, 3);
}

void Vc4Firmware::RingCpu() {
  ++bell0_pending_;
  clock_->ScheduleIn(lat_->irq_delivery_us, [this, epoch = epoch_] {
    if (epoch == epoch_ && bell0_pending_ > 0) {
      irq_->Raise(irq_line_);
    }
  });
}

void Vc4Firmware::HandleMessage(uint32_t msgid, const uint8_t* payload, uint32_t size) {
  VchiqMsgType type = static_cast<VchiqMsgType>(msgid >> kMsgTypeShift);
  switch (type) {
    case VchiqMsgType::kConnect: {
      connected_ = true;
      PostMessage(VchiqMsgType::kConnect, nullptr, 0);
      RingCpu();
      break;
    }
    case VchiqMsgType::kOpen: {
      if (connected_) {
        port_open_ = true;
        PostMessage(VchiqMsgType::kOpenAck, nullptr, 0);
        RingCpu();
      }
      break;
    }
    case VchiqMsgType::kData:
      if (port_open_ && size >= kMmalPayloadBytes) {
        HandleMmal(payload, size);
      }
      break;
    case VchiqMsgType::kBulkRx: {
      if (size < 8 || !ready_) {
        uint32_t words[2] = {0, 1};  // status 1: nothing to transmit
        PostMessage(VchiqMsgType::kBulkRxDone, words, 2);
        RingCpu();
        break;
      }
      uint32_t dest = 0;
      uint32_t req = 0;
      std::memcpy(&dest, payload, 4);
      std::memcpy(&req, payload + 4, 4);
      auto f = FrameOf(ready_->seq);
      ready_.reset();
      f->dest = dest;
      f->n = std::min(req, FrameBytes(f->res));
      uint64_t copy_us = lat_->dma_setup_us + (f->n * lat_->dma_per_kb_us + 1023) / 1024;
      clock_->ScheduleIn(copy_us, [this, epoch = epoch_, seq = f->seq] {
        if (epoch == epoch_) {
          CompleteBulkRx(seq);
        }
      });
      break;
    }
    case VchiqMsgType::kClose:
      port_open_ = false;
      break;
    default:
      break;
  }
}

void Vc4Firmware::HandleMmal(const uint8_t* payload, uint32_t size) {
  (void)size;
  uint32_t mmal_type = 0;
  uint32_t a = 0;
  uint32_t b = 0;
  std::memcpy(&mmal_type, payload, 4);
  std::memcpy(&a, payload + 4, 4);
  std::memcpy(&b, payload + 8, 4);
  switch (static_cast<MmalMsgType>(mmal_type)) {
    case MmalMsgType::kComponentCreate:
      component_created_ = (a == kMmalCameraComponent);
      PostMmalReply(MmalMsgType::kComponentCreate, component_created_ ? 0 : 1, 0);
      RingCpu();
      break;
    case MmalMsgType::kComponentEnable:
      component_enabled_ = component_created_;
      PostMmalReply(MmalMsgType::kComponentEnable, component_enabled_ ? 0 : 1, 0);
      RingCpu();
      break;
    case MmalMsgType::kPortParamSet: {
      uint32_t status = 1;
      Resolution r{};
      if (a == kMmalParamResolution && LookupResolution(b, &r)) {
        resolution_ = b;
        status = 0;
      }
      PostMmalReply(MmalMsgType::kPortParamSet, status, 0);
      RingCpu();
      break;
    }
    case MmalMsgType::kPortEnable:
      port_enabled_ = component_enabled_;
      PostMmalReply(MmalMsgType::kPortEnable, port_enabled_ ? 0 : 1, 0);
      RingCpu();
      break;
    case MmalMsgType::kCapture: {
      if (!port_enabled_ || resolution_ == 0 || !sensor_connected_) {
        // A disconnected sensor produces no BUFFER_DONE: the waiter times out
        // (the transient-failure class the paper recovers from by reset, §3.3).
        break;
      }
      // Back-to-back captures keep the sensor streaming: subsequent frames cost
      // only the pipeline time. One-shot (wait-per-frame) captures pay the full
      // exposure + ISP path — this asymmetry is what makes the native driver
      // 2.7x faster on 100-frame bursts (paper §7.3.2 Camera).
      uint32_t base_bytes = FrameBytes(720);
      uint32_t bytes = FrameBytes(resolution_);
      uint64_t extra_kb = bytes > base_bytes ? (bytes - base_bytes) / 1024 : 0;
      uint64_t full_frame_us = lat_->cam_frame_base_us + extra_kb * lat_->cam_frame_per_kb_us;
      uint64_t cost;
      if (!camera_inited_) {
        cost = lat_->cam_init_us + full_frame_us;
        camera_inited_ = true;
      } else if (capture_streaming_) {
        cost = lat_->cam_native_pipeline_us + extra_kb * lat_->cam_frame_per_kb_us / 4;
      } else {
        cost = full_frame_us;
      }
      capture_streaming_ = capture_in_flight_;
      capture_in_flight_ = true;
      frames_.push_back(Frame{.seq = frame_seq_++, .res = resolution_});
      ScheduleFrameDone(cost, frames_.back().seq);
      break;
    }
    default:
      PostMmalReply(static_cast<MmalMsgType>(mmal_type), 1, 0);
      RingCpu();
      break;
  }
}

void Vc4Firmware::ScheduleFrameDone(uint64_t cost_us, uint32_t seq) {
  clock_->ScheduleIn(cost_us, [this, epoch = epoch_, seq] {
    if (epoch != epoch_) {
      return;
    }
    if (ready_) {
      // The single frame buffer is still owned by the CPU; retry shortly.
      ScheduleFrameDone(5'000, seq);
      return;
    }
    capture_in_flight_ = false;
    ready_ = Ready{seq, FrameOf(seq)->res};
    ++frames_produced_;
    PostMmalReply(MmalMsgType::kBufferDone, FrameBytes(ready_->res), seq);
    RingCpu();
  });
}

void Vc4Firmware::CompleteBulkRx(uint32_t seq) {
  auto it = FrameOf(seq);
  Frame f = *it;
  frames_.erase(it);
  Status s = mem_->DmaFill(f.dest, f.n, [seq = f.seq, res = f.res](size_t off, uint8_t* dst,
                                                                   size_t len) {
    WriteFrameRange(seq, res, off, dst, len, SupportedPayloadWriters().front().write);
  });
  // {bytes moved, status}: a destination outside RAM moves nothing (status 1,
  // as when there is nothing to transmit).
  uint32_t words[2] = {f.n, 0};
  if (s != Status::kOk) {
    words[0] = 0;
    words[1] = 1;
  }
  PostMessage(VchiqMsgType::kBulkRxDone, words, 2);
  RingCpu();
}

void Vc4Firmware::SoftReset() {
  ++epoch_;  // drops every callback scheduled so far, frame-done events included
  queue_base_ = 0;
  master_tx_ = 0;
  connected_ = false;
  port_open_ = false;
  component_created_ = false;
  component_enabled_ = false;
  port_enabled_ = false;
  camera_inited_ = false;
  capture_in_flight_ = false;
  capture_streaming_ = false;
  resolution_ = 0;
  slave_rx_pos_ = 0;
  bell0_pending_ = 0;
  frames_.clear();
  ready_.reset();
  frame_seq_ = 0;
  irq_->Clear(irq_line_);
}

std::optional<uint64_t> Vc4Firmware::StateDigest() const {
  // No exclusions: a capture leaves the service connected and the frame
  // sequence advanced, so no camera template ever proves clean.
  StateHasher h;
  h.Add(frames_.size()).Add(irq_->Pending(irq_line_));
  h.Add(queue_base_).Add(master_tx_).Add(connected_).Add(port_open_);
  h.Add(component_created_).Add(component_enabled_).Add(port_enabled_);
  h.Add(camera_inited_).Add(capture_in_flight_).Add(capture_streaming_);
  h.Add(resolution_).Add(slave_rx_pos_).Add(bell0_pending_).Add(frame_seq_);
  h.Add(ready_.has_value()).Add(ready_ ? ready_->seq : 0).Add(ready_ ? ready_->res : 0);
  return h.digest();
}

}  // namespace dlt
