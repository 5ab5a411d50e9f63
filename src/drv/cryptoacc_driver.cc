#include "src/drv/cryptoacc_driver.h"

#include <vector>

#include "src/dev/cryptoacc/cryptoacc_device.h"
#include "src/soc/log.h"

namespace dlt {

namespace {
constexpr uint64_t kPollIntervalUs = 5;
constexpr uint64_t kPollTimeoutUs = 100'000;
}  // namespace

Status CryptoaccDriver::Transform(const TValue& op, const TValue& key, const TValue& len,
                                  const uint8_t* buf, size_t buf_len, uint8_t* out,
                                  uint64_t timeout_us) {
  // Input validation — these branches become the template's initial
  // constraints (eq on the op path, range + mask on len).
  bool is_cipher = io_->Branch(op, Cmp::kLe, TValue(kCaOpDecrypt), DLT_HERE);
  if (!is_cipher && !io_->Branch(op, Cmp::kEq, TValue(kCaOpDigest), DLT_HERE)) {
    return Status::kInvalidArg;
  }
  if (!io_->Branch(len, Cmp::kGt, TValue(0), DLT_HERE) ||
      !io_->Branch(len, Cmp::kLe, TValue(kCryptoMaxJobBytes), DLT_HERE)) {
    return Status::kInvalidArg;
  }
  if (!io_->Branch(len & TValue(0xf), Cmp::kEq, TValue(0), DLT_HERE)) {
    return Status::kInvalidArg;  // engine blocks are 16 bytes
  }
  if (buf_len < len.value()) {
    return Status::kInvalidArg;
  }

  TValue ctrl = io_->RegRead32(cfg_.crypto_device, kCaCtrl, DLT_HERE);
  if (!io_->Branch(ctrl & TValue(kCaCtrlEnable), Cmp::kEq, TValue(kCaCtrlEnable), DLT_HERE)) {
    return Status::kBadState;
  }
  TValue status = io_->RegRead32(cfg_.crypto_device, kCaStatus, DLT_HERE);
  if (!io_->Branch(status & TValue(kCaStatusBusy), Cmp::kEq, TValue(0), DLT_HERE)) {
    return Status::kBadState;
  }

  // Build the per-descriptor source/destination plan. Ciphers chunk the job
  // into pages (the transition path fixes the chunk count; the last chunk's
  // length stays symbolic); digests hash one contiguous region with a single
  // descriptor.
  std::vector<TValue> srcs;
  std::vector<TValue> dsts;
  std::vector<TValue> lens;
  if (is_cipher) {
    TValue consumed(0);
    while (true) {
      TValue src = io_->DmaAlloc(TValue(kCryptoChunkBytes), DLT_HERE);
      TValue dst = io_->DmaAlloc(TValue(kCryptoChunkBytes), DLT_HERE);
      if (src.value() == 0 || dst.value() == 0) {
        return Status::kNoMemory;
      }
      srcs.push_back(src);
      dsts.push_back(dst);
      if (io_->Branch(len - consumed, Cmp::kGt, TValue(kCryptoChunkBytes), DLT_HERE)) {
        lens.push_back(TValue(kCryptoChunkBytes));
        consumed = consumed + TValue(kCryptoChunkBytes);
        continue;
      }
      lens.push_back(len - consumed);
      break;
    }
  } else {
    TValue src = io_->DmaAlloc(TValue(kCryptoMaxJobBytes), DLT_HERE);
    TValue dst = io_->DmaAlloc(TValue(kCaDigestBytes), DLT_HERE);
    if (src.value() == 0 || dst.value() == 0) {
      return Status::kNoMemory;
    }
    srcs.push_back(src);
    dsts.push_back(dst);
    lens.push_back(len);
  }
  size_t n = srcs.size();
  TValue ring = io_->DmaAlloc(TValue(static_cast<uint64_t>(n) * kCaDescBytes), DLT_HERE);
  if (ring.value() == 0) {
    return Status::kNoMemory;
  }

  // Stage the inputs and build the descriptor ring — a run of consecutive
  // shared-memory word writes.
  TValue off(0);
  for (size_t i = 0; i < n; ++i) {
    io_->CopyToDma(srcs[i], buf, off, lens[i], DLT_HERE);
    off = off + lens[i];
  }
  for (size_t i = 0; i < n; ++i) {
    TValue d = ring + TValue(static_cast<uint64_t>(i) * kCaDescBytes);
    uint32_t flags = kCaDescValid | (i + 1 == n ? kCaDescIrq : 0);
    // The op is a symbolic operand of the control word: encrypt and decrypt
    // replay through the same template.
    TValue dctrl = TValue(flags) | (op << TValue(kCaOpShift));
    io_->ShmWrite32(d + TValue(0), dctrl, DLT_HERE);
    io_->ShmWrite32(d + TValue(4), srcs[i], DLT_HERE);
    io_->ShmWrite32(d + TValue(8), dsts[i], DLT_HERE);
    io_->ShmWrite32(d + TValue(12), lens[i], DLT_HERE);
    io_->ShmWrite32(d + TValue(16), key, DLT_HERE);
    io_->ShmWrite32(d + TValue(20), TValue(0), DLT_HERE);
  }

  io_->RegWrite32(cfg_.crypto_device, kCaRingBase, ring, DLT_HERE);
  io_->RegWrite32(cfg_.crypto_device, kCaRingSize, TValue(static_cast<uint64_t>(n)), DLT_HERE);
  io_->RegWrite32(cfg_.crypto_device, kCaKey, key, DLT_HERE);
  // Doorbell: publish the producer index.
  io_->RegWrite32(cfg_.crypto_device, kCaHead, TValue(static_cast<uint64_t>(n)), DLT_HERE);

  Status s = io_->WaitForIrq(cfg_.crypto_irq, timeout_us, DLT_HERE);
  if (!Ok(s)) {
    return RecoverFromError(DLT_HERE);
  }
  status = io_->RegRead32(cfg_.crypto_device, kCaStatus, DLT_HERE);
  if (!io_->Branch(status & TValue(kCaStatusError), Cmp::kEq, TValue(0), DLT_HERE)) {
    return RecoverFromError(DLT_HERE);
  }
  if (!io_->Branch(status & TValue(kCaStatusDone), Cmp::kEq, TValue(kCaStatusDone), DLT_HERE)) {
    return RecoverFromError(DLT_HERE);
  }
  // IRQ-gated poll: the consumer index must have caught up with the head.
  s = io_->PollReg32(cfg_.crypto_device, kCaTail, 0xffffffffu, static_cast<uint32_t>(n),
                     /*negate=*/false, kPollTimeoutUs, kPollIntervalUs, DLT_HERE);
  if (!Ok(s)) {
    return RecoverFromError(DLT_HERE);
  }
  io_->RegWrite32(cfg_.crypto_device, kCaStatus, TValue(kCaStatusDone), DLT_HERE);

  if (is_cipher) {
    TValue out_off(0);
    for (size_t i = 0; i < n; ++i) {
      io_->CopyFromDma(out, out_off, dsts[i], lens[i], DLT_HERE);
      out_off = out_off + lens[i];
    }
  } else {
    io_->CopyFromDma(out, TValue(0), dsts[0], TValue(kCaDigestBytes), DLT_HERE);
  }
  io_->DmaReleaseAll(DLT_HERE);
  return Status::kOk;
}

Status CryptoaccDriver::RecoverFromError(SourceLoc loc) {
  DLT_LOG(kInfo) << "cryptoacc driver error recovery from " << loc.file << ":" << loc.line;
  // Clear stale completion state and abandon the ring; the engine drops any
  // in-flight batch when the ring registers are rewritten on the next job.
  io_->RegWrite32(cfg_.crypto_device, kCaStatus, TValue(kCaStatusDone | kCaStatusError),
                  DLT_HERE);
  io_->RegWrite32(cfg_.crypto_device, kCaRingSize, TValue(0), DLT_HERE);
  io_->DmaReleaseAll(DLT_HERE);
  return Status::kIoError;
}

}  // namespace dlt
