// Gold fTPM driver: a thin command/response pipe over the FtpmDevice mailbox,
// following the kernel's tpm_ftpm_tee shape — stage ordinal + argument +
// request payload, ring GO, wait for the completion interrupt, drain the
// variable-length response. Recordable entry:
//   replay_ftpm(ord, arg, req, rsp) — the request/response lengths are
// symbolic functions of (ord, arg), which is what makes this class's template
// shape different from the block/camera classes: variable-length PIO with no
// DMA descriptor chains.
#ifndef SRC_DRV_FTPM_DRIVER_H_
#define SRC_DRV_FTPM_DRIVER_H_

#include "src/record/driver_io.h"

namespace dlt {

class FtpmDriver {
 public:
  struct Config {
    uint16_t ftpm_device = 0;
    int ftpm_irq = 0;
  };

  FtpmDriver(DriverIo* io, const Config& config) : io_(io), cfg_(config) {}

  // Executes one TPM command. |req| supplies the request payload (its length
  // is derived from ord/arg inside the driver); the response is written to
  // |rsp_out|, which must be large enough for the ordinal's response.
  Status Execute(const TValue& ord, const TValue& arg, const uint8_t* req, uint8_t* rsp_out,
                 uint64_t timeout_us = 5'000'000);

 private:
  DriverIo* io_;
  Config cfg_;
};

}  // namespace dlt

#endif  // SRC_DRV_FTPM_DRIVER_H_
