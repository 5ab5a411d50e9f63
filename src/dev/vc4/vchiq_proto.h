// Wire format of the simulated VCHIQ shared-memory message queue and the
// MMAL-style camera service carried on top of it (paper §6.3: slot-based queue,
// slot 0 metadata updated by both sides, messages of tens of types, doorbell
// registers BELL0/BELL2 for CPU/VC4 signalling).
#ifndef SRC_DEV_VC4_VCHIQ_PROTO_H_
#define SRC_DEV_VC4_VCHIQ_PROTO_H_

#include <cstdint>

namespace dlt {

// Queue geometry: 16 slots of 4 KB. Slot 0 holds metadata; slots 1-7 carry
// CPU->VC4 (slave) messages, slots 8-15 VC4->CPU (master) messages.
inline constexpr uint32_t kVchiqSlotSize = 4096;
inline constexpr uint32_t kVchiqMaxSlots = 16;
inline constexpr uint32_t kVchiqQueueBytes = kVchiqSlotSize * kVchiqMaxSlots;
inline constexpr uint32_t kVchiqSlaveBase = kVchiqSlotSize;       // slots 1..7
inline constexpr uint32_t kVchiqSlaveBytes = 7 * kVchiqSlotSize;
inline constexpr uint32_t kVchiqMasterBase = 8 * kVchiqSlotSize;  // slots 8..15
inline constexpr uint32_t kVchiqMasterBytes = 8 * kVchiqSlotSize;

// Slot-zero metadata offsets.
inline constexpr uint32_t kSzMagic = 0x00;
inline constexpr uint32_t kSzVersion = 0x04;
inline constexpr uint32_t kSzSlotSize = 0x08;
inline constexpr uint32_t kSzMaxSlots = 0x0c;
inline constexpr uint32_t kSzMasterTxPos = 0x10;  // VC4 write cursor (bytes into master region)
inline constexpr uint32_t kSzSlaveTxPos = 0x14;   // CPU write cursor (bytes into slave region)

inline constexpr uint32_t kVchiqMagic = 0x56434851;  // "VCHQ"
inline constexpr uint32_t kVchiqVersion = 8;

// Message header: u32 msgid (type<<24), u32 payload size; payload padded to 8.
inline constexpr uint32_t kMsgHdrBytes = 8;
inline constexpr int kMsgTypeShift = 24;

enum class VchiqMsgType : uint8_t {
  kPadding = 0,
  kConnect = 1,
  kOpen = 2,
  kOpenAck = 3,
  kClose = 4,
  kData = 5,
  kBulkRx = 6,      // payload {dest, requested bytes}
  kBulkRxDone = 7,  // (VC4->CPU) payload {bytes moved, status}
};

// MMAL sub-protocol: DATA payload = {u32 mmal_type, u32 a, u32 b}.
inline constexpr uint32_t kMmalPayloadBytes = 12;

enum class MmalMsgType : uint8_t {
  kComponentCreate = 1,  // a = component id (1 = camera)
  kComponentEnable = 2,
  kPortParamSet = 3,  // a = param id (1 = resolution), b = value
  kPortEnable = 4,
  kCapture = 5,      // a = frame sequence number
  kBufferDone = 6,   // (VC4->CPU) a = img_size, b = sequence
};
inline constexpr uint32_t kMmalReplyFlag = 0x80;
inline constexpr uint32_t kMmalCameraComponent = 1;
inline constexpr uint32_t kMmalParamResolution = 1;

// Mailbox register offsets.
inline constexpr uint64_t kMboxRead = 0x00;
inline constexpr uint64_t kMboxStatus = 0x18;
inline constexpr uint64_t kMboxWrite = 0x20;
inline constexpr uint64_t kBell0 = 0x40;  // VC4 -> CPU doorbell (read to ack)
inline constexpr uint64_t kBell2 = 0x48;  // CPU -> VC4 doorbell (write to ring)

// The queue base handed to VC4 via MBOX_WRITE is 16 KB aligned (paper Table 6:
// MBOX_WRITE = queue & ~0x3fff).
inline constexpr uint32_t kMboxQueueAlignMask = 0x3fff;

}  // namespace dlt

#endif  // SRC_DEV_VC4_VCHIQ_PROTO_H_
