#include "src/core/event.h"

namespace dlt {

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

}  // namespace dlt
