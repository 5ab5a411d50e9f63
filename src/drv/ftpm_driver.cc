#include "src/drv/ftpm_driver.h"

#include "src/dev/ftpm/ftpm_device.h"

namespace dlt {

// Every DLT_HERE below is a recording site. The recorder stores each site's
// file and line in the templates it emits, so the sites are part of every
// sealed fTPM package, and RecordedPackageTest.SealedPackagesArePinned pins
// those bytes: an edit that moves a site by one line changes the package. A
// change that should leave the templates as they are keeps every site on
// its line, so an edit above Execute keeps its line count; a change that
// moves sites re-pins the digests and says why. The same holds for every
// driver under src/drv.
Status FtpmDriver::Execute(const TValue& ord, const TValue& arg, const uint8_t* req,
                           uint8_t* rsp_out, uint64_t timeout_us) {
  TValue ctrl = io_->RegRead32(cfg_.ftpm_device, kFtpmCtrl, DLT_HERE);
  if (!io_->Branch(ctrl & TValue(kFtpmCtrlEnable), Cmp::kEq, TValue(kFtpmCtrlEnable), DLT_HERE)) {
    return Status::kBadState;
  }
  TValue status = io_->RegRead32(cfg_.ftpm_device, kFtpmStatus, DLT_HERE);
  if (!io_->Branch(status & TValue(kFtpmStatusBusy), Cmp::kEq, TValue(0), DLT_HERE)) {
    return Status::kBadState;
  }

  // Each ordinal is its own transition path; the request/response lengths are
  // symbolic functions of (ord, arg) — the branches below become the
  // template's initial constraints, and GetRandom's response length stays a
  // variable-length slot (the shape that distinguishes this class).
  TValue req_len(0);
  TValue rsp_len(0);
  bool has_payload = false;
  if (io_->Branch(ord, Cmp::kEq, TValue(kFtpmOrdGetRandom), DLT_HERE)) {
    if (!io_->Branch(arg, Cmp::kGt, TValue(0), DLT_HERE) ||
        !io_->Branch(arg, Cmp::kLe, TValue(kFtpmMaxRandom), DLT_HERE)) {
      return Status::kInvalidArg;
    }
    // The data FIFO is word-wide: lengths must be 4-byte multiples.
    if (!io_->Branch(arg & TValue(0x3), Cmp::kEq, TValue(0), DLT_HERE)) {
      return Status::kInvalidArg;
    }
    rsp_len = arg;
  } else if (io_->Branch(ord, Cmp::kEq, TValue(kFtpmOrdPcrExtend), DLT_HERE)) {
    if (!io_->Branch(arg, Cmp::kLt, TValue(kFtpmPcrCount), DLT_HERE)) {
      return Status::kInvalidArg;
    }
    req_len = TValue(kFtpmPcrBytes);
    rsp_len = TValue(4);
    has_payload = true;
  } else if (io_->Branch(ord, Cmp::kEq, TValue(kFtpmOrdPcrRead), DLT_HERE)) {
    if (!io_->Branch(arg, Cmp::kLt, TValue(kFtpmPcrCount), DLT_HERE)) {
      return Status::kInvalidArg;
    }
    rsp_len = TValue(kFtpmPcrBytes);
  } else if (io_->Branch(ord, Cmp::kEq, TValue(kFtpmOrdQuote), DLT_HERE)) {
    req_len = TValue(kFtpmNonceBytes);
    rsp_len = TValue(kFtpmNonceBytes + kFtpmPcrBytes);
    has_payload = true;
  } else {
    return Status::kInvalidArg;
  }

  io_->RegWrite32(cfg_.ftpm_device, kFtpmOrd, ord, DLT_HERE);
  io_->RegWrite32(cfg_.ftpm_device, kFtpmArg, arg, DLT_HERE);
  io_->RegWrite32(cfg_.ftpm_device, kFtpmReqLen, req_len, DLT_HERE);
  if (has_payload) {
    io_->PioOut(cfg_.ftpm_device, kFtpmData, req, TValue(0), req_len, DLT_HERE);
  }
  io_->RegWrite32(cfg_.ftpm_device, kFtpmGo, TValue(1), DLT_HERE);

  DLT_RETURN_IF_ERROR(io_->WaitForIrq(cfg_.ftpm_irq, timeout_us, DLT_HERE));

  status = io_->RegRead32(cfg_.ftpm_device, kFtpmStatus, DLT_HERE);
  if (!io_->Branch(status & TValue(kFtpmStatusError), Cmp::kEq, TValue(0), DLT_HERE)) {
    io_->RegWrite32(cfg_.ftpm_device, kFtpmStatus, TValue(kFtpmStatusError), DLT_HERE);
    return Status::kIoError;
  }
  if (!io_->Branch(status & TValue(kFtpmStatusReady), Cmp::kEq, TValue(kFtpmStatusReady),
                   DLT_HERE)) {
    return Status::kIoError;
  }
  // Response-length bookkeeping: a statistic input (the driver already knows
  // the length from the ordinal), never branched on.
  (void)io_->RegRead32(cfg_.ftpm_device, kFtpmRspLen, DLT_HERE);
  io_->PioIn(cfg_.ftpm_device, kFtpmData, rsp_out, TValue(0), rsp_len, DLT_HERE);
  io_->RegWrite32(cfg_.ftpm_device, kFtpmStatus, TValue(kFtpmStatusReady), DLT_HERE);
  return Status::kOk;
}

}  // namespace dlt
