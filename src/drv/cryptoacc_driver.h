// Gold crypto-accelerator driver: builds a descriptor ring in DMA memory
// (kernel crypto-queue idiom), rings the head-register doorbell, waits for the
// completion IRQ, then polls the consumer index before collecting results.
// Recordable entry:
//   replay_cryptoacc(op, key, len, buf, out)
// op 0/1 (encrypt/decrypt) share one transition path — the op lands in the
// descriptor control word as a symbolic operand — while digest is its own
// path. The template shape stresses the opposite extreme from the fTPM pipe:
// bulk descriptor writes, DMA chunking, and an IRQ-gated poll.
#ifndef SRC_DRV_CRYPTOACC_DRIVER_H_
#define SRC_DRV_CRYPTOACC_DRIVER_H_

#include "src/record/driver_io.h"

namespace dlt {

class CryptoaccDriver {
 public:
  struct Config {
    uint16_t crypto_device = 0;
    int crypto_irq = 0;
  };

  CryptoaccDriver(DriverIo* io, const Config& config) : io_(io), cfg_(config) {}

  // Runs one job. For op 0/1 (cipher) |out| receives |len| transformed bytes;
  // for op 2 (digest) |out| receives the 32-byte digest. |len| must be a
  // positive 16-byte multiple, at most kCryptoMaxJobBytes.
  Status Transform(const TValue& op, const TValue& key, const TValue& len, const uint8_t* buf,
                   size_t buf_len, uint8_t* out, uint64_t timeout_us = 5'000'000);

 private:
  Status RecoverFromError(SourceLoc loc);

  DriverIo* io_;
  Config cfg_;
};

inline constexpr uint64_t kCryptoChunkBytes = 4096;
inline constexpr uint64_t kCryptoMaxJobBytes = 16384;

}  // namespace dlt

#endif  // SRC_DRV_CRYPTOACC_DRIVER_H_
