// InvocationRing: a bounded per-session submission/completion ring — the
// replay service's one queued transport (docs/replay_service.md); every
// session gets one when it opens. Clients write {entry, args} descriptors into
// submission slots and ring a doorbell; the service drains every pending
// descriptor as ONE batch under two world switches and files per-command
// ReplayStats into the matching completion slots, which the client reaps in
// sequence order.
//
// Slot accounting follows the VCHIQ slot queue simulated in src/soc (and
// io_uring's SQ/CQ): a slot is occupied from Push until its completion is
// reaped, so the completion side can never overflow — Push is the only place
// backpressure (kBusy) appears. Counters are monotonic sequence numbers
// (pushed/drained/reaped); slot index is seq % depth, so wrap-around is the
// normal steady state, not a special case.
#ifndef SRC_TEE_INVOCATION_RING_H_
#define SRC_TEE_INVOCATION_RING_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/replay_args.h"
#include "src/soc/status.h"

namespace dlt {

// One submission descriptor. Buffer views inside |args| are borrowed — the
// client keeps the memory alive until the command's completion is reaped.
struct RingCmd {
  std::string entry;
  ReplayArgs args;
};

// One reaped completion: the sequence number assigned at Push plus the
// per-command replay result.
struct RingCompletion {
  uint64_t seq = 0;
  Result<ReplayStats> result{Status::kBadState};
};

class InvocationRing {
 public:
  explicit InvocationRing(size_t depth) : slots_(depth == 0 ? 1 : depth) {}

  size_t depth() const { return slots_.size(); }
  // SQ depth: pushed, but the doorbell has not drained them yet.
  size_t submission_depth() const { return static_cast<size_t>(pushed_ - drained_); }
  // CQ depth: executed, but the client has not reaped the completion yet.
  size_t completion_depth() const { return static_cast<size_t>(drained_ - reaped_); }
  // Occupied slots (pending descriptor or un-reaped completion).
  size_t in_flight() const { return static_cast<size_t>(pushed_ - reaped_); }

  // Client side: writes one descriptor; returns its sequence number. kBusy
  // when every slot is occupied — reaping completions frees slots.
  Result<uint64_t> Push(std::string entry, ReplayArgs args) {
    if (in_flight() >= slots_.size()) {
      return Status::kBusy;
    }
    Slot& s = slots_[pushed_ % slots_.size()];
    s.seq = pushed_;
    s.cmd.entry = std::move(entry);
    s.cmd.args = std::move(args);
    s.result = Status::kBadState;
    return pushed_++;
  }

  // Client side: reaps the oldest completion, in sequence order. kNotFound
  // while no drained command is waiting to be reaped.
  Result<RingCompletion> PopCompletion() {
    if (reaped_ == drained_) {
      return Status::kNotFound;
    }
    Slot& s = slots_[reaped_ % slots_.size()];
    RingCompletion c;
    c.seq = s.seq;
    c.result = std::move(s.result);
    ++reaped_;
    return c;
  }

  // ---- Service drain side (doorbell) ----
  // The batch a doorbell executes is the sequence window [drain_begin,
  // drain_end). The service writes each command's result into result_slot(seq)
  // and then publishes the whole batch with FinishDrain(drain_end).
  uint64_t drain_begin() const { return drained_; }
  uint64_t drain_end() const { return pushed_; }
  // Monotonic sequence counters — the fuzzer's ring-accounting invariant
  // asserts pushed() >= drained() >= reaped() and all three never regress.
  uint64_t pushed() const { return pushed_; }
  uint64_t drained() const { return drained_; }
  uint64_t reaped() const { return reaped_; }
  RingCmd& command(uint64_t seq) { return slots_[seq % slots_.size()].cmd; }
  Result<ReplayStats>& result_slot(uint64_t seq) { return slots_[seq % slots_.size()].result; }
  void FinishDrain(uint64_t upto) { drained_ = upto; }

 private:
  struct Slot {
    uint64_t seq = 0;
    RingCmd cmd;
    Result<ReplayStats> result{Status::kBadState};
  };

  std::vector<Slot> slots_;
  uint64_t pushed_ = 0;   // next sequence number to assign
  uint64_t drained_ = 0;  // commands executed with their completion filed
  uint64_t reaped_ = 0;   // completions handed back to the client
};

}  // namespace dlt

#endif  // SRC_TEE_INVOCATION_RING_H_
