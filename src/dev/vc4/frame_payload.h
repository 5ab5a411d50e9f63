// The VC4 camera's frame generator, internal to src/dev/vc4. Its payload
// writer is compiled once per CPU level; Vc4Firmware uses the first one this
// CPU supports, and tests run each of them.
#ifndef SRC_DEV_VC4_FRAME_PAYLOAD_H_
#define SRC_DEV_VC4_FRAME_PAYLOAD_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace dlt {

// Writes |len| payload bytes of the stream keyed by |key| to |dst|.
using PayloadWriter = void (*)(uint64_t key, uint8_t* dst, size_t len);

struct PayloadWriterInstance {
  const char* cpu;  // the CPU level it is compiled for
  PayloadWriter write;
};

// The instances this CPU can run, fastest first; frames use the first.
std::span<const PayloadWriterInstance> SupportedPayloadWriters();

// Writes bytes [off, off+len) of Vc4Firmware::MakeFrame(seq, resolution) to
// |dst| with |write|, where off + len <= Vc4Firmware::FrameBytes(resolution).
void WriteFrameRange(uint32_t seq, uint32_t resolution, size_t off, uint8_t* dst, size_t len,
                     PayloadWriter write);

}  // namespace dlt

#endif  // SRC_DEV_VC4_FRAME_PAYLOAD_H_
