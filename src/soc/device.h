// Interfaces implemented by simulated IO devices.
#ifndef SRC_SOC_DEVICE_H_
#define SRC_SOC_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "src/soc/types.h"

namespace dlt {

// A device with a 32-bit MMIO register window. Offsets are relative to the
// device's mapped base and 4-byte aligned.
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;

  virtual std::string_view name() const = 0;
  virtual uint32_t MmioRead32(uint64_t offset) = 0;
  virtual void MmioWrite32(uint64_t offset, uint32_t value) = 0;

  // Returns the device to a clean-slate state "as if it just finished
  // initialization in the boot up process" (paper §5, Resetting device states).
  // In-flight jobs are dropped; persistent media content is preserved.
  virtual void SoftReset() = 0;

  // A digest of everything a later template can observe of this device, so
  // the recorder can prove a template leaves the device exactly as SoftReset
  // does. nullopt (the default) means "never provably clean": the replayer
  // then resets before every template that drives the device, as the paper
  // does. Implementations hash every field SoftReset assigns plus the
  // pending completion event and the IRQ line, leaving out only request
  // latches that every template overwrites before anything reads them.
  virtual std::optional<uint64_t> StateDigest() const { return std::nullopt; }
};

// Order-sensitive 64-bit FNV-1a accumulator for StateDigest implementations.
class StateHasher {
 public:
  StateHasher& Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<uint8_t>(v >> (8 * i)));
    }
    return *this;
  }
  uint64_t digest() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  uint64_t h_ = 0xcbf29ce484222325ull;
};

// A peripheral data port that a DMA engine can pace against (DREQ). The bcm2835
// system DMA moves MMC block data by addressing the controller's data FIFO.
class DmaDataPort {
 public:
  virtual ~DmaDataPort() = default;
  // Device -> memory. Returns bytes produced (may be < n if the FIFO underruns).
  virtual size_t DmaPull(void* dst, size_t n) = 0;
  // Memory -> device. Returns bytes consumed.
  virtual size_t DmaPush(const void* src, size_t n) = 0;
};

}  // namespace dlt

#endif  // SRC_SOC_DEVICE_H_
