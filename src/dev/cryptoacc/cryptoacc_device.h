// Crypto accelerator model — the fifth driverlet class (ROADMAP item 1).
// Modeled on the kernel crypto-queue idiom: the driver builds a ring of job
// descriptors in DMA memory, rings a doorbell (producer head register), and
// the engine walks the ring as a bus master, transforming src → dst and
// raising a completion IRQ on descriptors flagged for interrupt. The cipher
// is an involutive XOR keystream so encrypt∘decrypt round-trips exactly, and
// the digest op is a deterministic FNV expansion — both predictable oracles
// for record/replay tests.
#ifndef SRC_DEV_CRYPTOACC_CRYPTOACC_DEVICE_H_
#define SRC_DEV_CRYPTOACC_CRYPTOACC_DEVICE_H_

#include <cstdint>
#include <vector>

#include "src/soc/address_space.h"
#include "src/soc/device.h"
#include "src/soc/irq.h"
#include "src/soc/latency_model.h"
#include "src/soc/sim_clock.h"

namespace dlt {

// Register map (all 32-bit).
inline constexpr uint64_t kCaCtrl = 0x00;      // bit0: enable
inline constexpr uint64_t kCaStatus = 0x04;    // bit0 done (W1C), bit1 error (W1C), bit2 busy
inline constexpr uint64_t kCaRingBase = 0x08;  // physical base of the descriptor ring
inline constexpr uint64_t kCaRingSize = 0x0c;  // ring capacity in descriptors
inline constexpr uint64_t kCaHead = 0x10;      // producer index; writing is the doorbell
inline constexpr uint64_t kCaTail = 0x14;      // consumer index (statistic input)
inline constexpr uint64_t kCaKey = 0x18;       // 32-bit session key word

inline constexpr uint32_t kCaCtrlEnable = 0x1;
inline constexpr uint32_t kCaStatusDone = 0x1;
inline constexpr uint32_t kCaStatusError = 0x2;
inline constexpr uint32_t kCaStatusBusy = 0x4;

// Descriptor layout: 6 words (24 bytes), mirroring a DMA control block.
//   word0 ctrl:  bit0 valid, bit1 irq-on-complete, bits 8..9 op
//   word1 src_ad, word2 dst_ad, word3 len (bytes), word4 key, word5 reserved
inline constexpr uint32_t kCaDescBytes = 24;
inline constexpr uint32_t kCaDescValid = 0x1;
inline constexpr uint32_t kCaDescIrq = 0x2;
inline constexpr uint32_t kCaOpShift = 8;
inline constexpr uint32_t kCaOpMask = 0x3;
inline constexpr uint32_t kCaOpEncrypt = 0;
inline constexpr uint32_t kCaOpDecrypt = 1;
inline constexpr uint32_t kCaOpDigest = 2;

inline constexpr uint32_t kCaDigestBytes = 32;
inline constexpr uint32_t kCaMaxRing = 64;

class CryptoaccDevice : public MmioDevice {
 public:
  CryptoaccDevice(AddressSpace* mem, SimClock* clock, InterruptController* irq,
                  const LatencyModel* lat, int irq_line)
      : mem_(mem), clock_(clock), irq_(irq), lat_(lat), irq_line_(irq_line) {}

  std::string_view name() const override { return "cryptoacc"; }
  uint32_t MmioRead32(uint64_t offset) override;
  void MmioWrite32(uint64_t offset, uint32_t value) override;
  void SoftReset() override;
  std::optional<uint64_t> StateDigest() const override;

  int irq_line() const { return irq_line_; }

  uint64_t descriptors_processed() const { return descriptors_processed_; }

  // The XOR keystream byte for (key, index) — exposed so tests can derive
  // expected ciphertext without a device.
  static uint8_t KeystreamByte(uint32_t key, uint64_t index);
  // Deterministic 32-byte digest of (key, data) — the kCaOpDigest oracle.
  static void DigestBytes(uint32_t key, const uint8_t* data, size_t n, uint8_t out[kCaDigestBytes]);

 private:
  void Kick();
  void Complete(bool error, bool want_irq);
  void UpdateIrq();

  AddressSpace* mem_;
  SimClock* clock_;
  InterruptController* irq_;
  const LatencyModel* lat_;
  int irq_line_;

  uint32_t ctrl_ = kCaCtrlEnable;
  uint32_t status_ = 0;
  uint32_t ring_base_ = 0;
  uint32_t ring_size_ = 0;
  uint32_t head_ = 0;
  uint32_t tail_ = 0;
  uint32_t key_ = 0;
  SimClock::EventId pending_ = SimClock::kInvalidEvent;

  uint64_t descriptors_processed_ = 0;
};

}  // namespace dlt

#endif  // SRC_DEV_CRYPTOACC_CRYPTOACC_DEVICE_H_
