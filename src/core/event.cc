#include "src/core/event.h"

#include <algorithm>

namespace dlt {

EventClass ClassOf(EventKind k) {
  switch (k) {
    case EventKind::kRegRead:
    case EventKind::kShmRead:
    case EventKind::kDmaAlloc:
    case EventKind::kGetRandBytes:
    case EventKind::kGetTimestamp:
    case EventKind::kWaitIrq:
    case EventKind::kCopyFromDma:
    case EventKind::kPioIn:
      return EventClass::kInput;
    case EventKind::kRegWrite:
    case EventKind::kShmWrite:
    case EventKind::kDelay:
    case EventKind::kCopyToDma:
    case EventKind::kPioOut:
      return EventClass::kOutput;
    case EventKind::kPollReg:
    case EventKind::kPollShm:
      return EventClass::kMeta;
  }
  return EventClass::kMeta;
}

const char* EventKindName(EventKind k) {
  switch (k) {
    case EventKind::kRegRead: return "reg_read";
    case EventKind::kShmRead: return "shm_read";
    case EventKind::kDmaAlloc: return "dma_alloc";
    case EventKind::kGetRandBytes: return "get_rand_bytes";
    case EventKind::kGetTimestamp: return "get_ts";
    case EventKind::kWaitIrq: return "wait_for_irq";
    case EventKind::kCopyFromDma: return "copy_from_dma";
    case EventKind::kPioIn: return "pio_in";
    case EventKind::kRegWrite: return "reg_write";
    case EventKind::kShmWrite: return "shm_write";
    case EventKind::kDelay: return "delay";
    case EventKind::kCopyToDma: return "copy_to_dma";
    case EventKind::kPioOut: return "pio_out";
    case EventKind::kPollReg: return "poll_reg";
    case EventKind::kPollShm: return "poll_shm";
  }
  return "?";
}

Result<EventKind> EventKindFromName(std::string_view name) {
  static constexpr EventKind kAll[] = {
      EventKind::kRegRead,     EventKind::kShmRead,   EventKind::kDmaAlloc,
      EventKind::kGetRandBytes, EventKind::kGetTimestamp, EventKind::kWaitIrq,
      EventKind::kCopyFromDma, EventKind::kPioIn,     EventKind::kRegWrite,
      EventKind::kShmWrite,    EventKind::kDelay,     EventKind::kCopyToDma,
      EventKind::kPioOut,      EventKind::kPollReg,   EventKind::kPollShm,
  };
  for (EventKind k : kAll) {
    if (name == EventKindName(k)) {
      return k;
    }
  }
  return Status::kCorrupt;
}

bool SameStateTransition(const TemplateEvent& a, const TemplateEvent& b) {
  if (a.kind != b.kind || a.device != b.device || a.reg_off != b.reg_off ||
      a.irq_line != b.irq_line || a.mask != b.mask || a.want != b.want ||
      a.poll_cmp != b.poll_cmp || a.state_changing != b.state_changing ||
      a.buffer != b.buffer) {
    return false;
  }
  if (!Expr::Equal(a.addr, b.addr) || !Expr::Equal(a.value, b.value) ||
      !Expr::Equal(a.buf_offset, b.buf_offset) ||
      !Constraint::Equal(a.constraint, b.constraint)) {
    return false;
  }
  return SameStateTransition(a.body, b.body);
}

bool SameStateTransition(const std::vector<TemplateEvent>& a,
                         const std::vector<TemplateEvent>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const TemplateEvent& x, const TemplateEvent& y) {
                      return SameStateTransition(x, y);
                    });
}

}  // namespace dlt
