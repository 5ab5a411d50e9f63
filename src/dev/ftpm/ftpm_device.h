// Firmware-TPM device model — the fourth driverlet class (ROADMAP item 1).
// Mirrors the shape of the kernel's tpm_ftpm_tee driver target: a thin
// command/response pipe with variable-length request and response buffers and
// a busy/ready status register. The "firmware" executes a tiny deterministic
// TPM command set (get-random, PCR extend/read, quote) so record/replay tests
// can predict responses; PCR bank and DRBG state model the fTPM's NV storage
// and survive SoftReset like media do on the block devices.
#ifndef SRC_DEV_FTPM_FTPM_DEVICE_H_
#define SRC_DEV_FTPM_FTPM_DEVICE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/soc/device.h"
#include "src/soc/irq.h"
#include "src/soc/latency_model.h"
#include "src/soc/sim_clock.h"

namespace dlt {

// Register map (all 32-bit).
inline constexpr uint64_t kFtpmCtrl = 0x00;    // bit0: enable
inline constexpr uint64_t kFtpmStatus = 0x04;  // bit0 busy, bit1 ready (W1C), bit2 error
inline constexpr uint64_t kFtpmOrd = 0x08;     // command ordinal
inline constexpr uint64_t kFtpmArg = 0x0c;     // command argument (nbytes / pcr index / mask)
inline constexpr uint64_t kFtpmReqLen = 0x10;  // request payload bytes (write before data)
inline constexpr uint64_t kFtpmData = 0x14;    // FIFO: write pushes request, read pops response
inline constexpr uint64_t kFtpmGo = 0x18;      // write 1: execute the staged command
inline constexpr uint64_t kFtpmRspLen = 0x1c;  // response payload bytes (statistic input)
inline constexpr uint64_t kFtpmVer = 0x20;     // interface version, for probe checks

inline constexpr uint32_t kFtpmCtrlEnable = 0x1;
inline constexpr uint32_t kFtpmStatusBusy = 0x1;
inline constexpr uint32_t kFtpmStatusReady = 0x2;
inline constexpr uint32_t kFtpmStatusError = 0x4;
inline constexpr uint32_t kFtpmVersion = 0x46545031;  // "FTP1"

// Command ordinals (fTPM-profile subset).
inline constexpr uint32_t kFtpmOrdGetRandom = 1;  // arg: nbytes; rsp: nbytes
inline constexpr uint32_t kFtpmOrdPcrExtend = 2;  // arg: pcr; req: 32B digest; rsp: 4B status
inline constexpr uint32_t kFtpmOrdPcrRead = 3;    // arg: pcr; rsp: 32B value
inline constexpr uint32_t kFtpmOrdQuote = 4;      // arg: pcr mask; req: 16B nonce; rsp: 48B

inline constexpr uint32_t kFtpmPcrCount = 8;
inline constexpr uint32_t kFtpmPcrBytes = 32;
inline constexpr uint32_t kFtpmNonceBytes = 16;
inline constexpr uint32_t kFtpmMaxRandom = 256;

class FtpmDevice : public MmioDevice {
 public:
  FtpmDevice(SimClock* clock, InterruptController* irq, const LatencyModel* lat, int irq_line)
      : clock_(clock), irq_(irq), lat_(lat), irq_line_(irq_line) {}

  std::string_view name() const override { return "ftpm"; }
  uint32_t MmioRead32(uint64_t offset) override;
  void MmioWrite32(uint64_t offset, uint32_t value) override;
  void SoftReset() override;
  std::optional<uint64_t> StateDigest() const override;

  int irq_line() const { return irq_line_; }

  uint64_t commands_executed() const { return commands_executed_; }

  // The PCR bank state, for test oracles (validation scripts re-derive the
  // expected extend/read/quote bytes with the static helpers below).
  const std::array<uint8_t, kFtpmPcrBytes>& pcr(uint32_t index) const {
    return pcrs_[index % kFtpmPcrCount];
  }

  // pcr' = H(pcr || digest) — the deterministic extend mix.
  static std::array<uint8_t, kFtpmPcrBytes> ExtendMix(
      const std::array<uint8_t, kFtpmPcrBytes>& pcr, const uint8_t* digest, size_t len);

 private:
  void Execute();
  void Complete(bool error);
  void UpdateIrq();
  uint8_t NextDrbgByte();

  SimClock* clock_;
  InterruptController* irq_;
  const LatencyModel* lat_;
  int irq_line_;

  uint32_t ctrl_ = kFtpmCtrlEnable;
  uint32_t status_ = 0;
  uint32_t ord_ = 0;
  uint32_t arg_ = 0;
  uint32_t req_len_ = 0;
  std::vector<uint8_t> req_;
  std::vector<uint8_t> rsp_;
  size_t rsp_pos_ = 0;
  SimClock::EventId pending_ = SimClock::kInvalidEvent;

  // NV state: survives SoftReset (fTPM state lives in RPMB, not the mailbox).
  std::array<std::array<uint8_t, kFtpmPcrBytes>, kFtpmPcrCount> pcrs_{};
  uint64_t drbg_ = 0x66747061'74657374ull;  // deterministic DRBG seed

  uint64_t commands_executed_ = 0;
};

}  // namespace dlt

#endif  // SRC_DEV_FTPM_FTPM_DEVICE_H_
