// The interaction-template event IR (paper Table 1). A template is a linear
// sequence of these events; poll meta events may carry a body replayed per
// failed iteration.
#ifndef SRC_CORE_EVENT_H_
#define SRC_CORE_EVENT_H_

#include <string>
#include <vector>

#include "src/soc/types.h"
#include "src/sym/constraint.h"

namespace dlt {

enum class EventKind : uint8_t {
  // Input events (driver's perspective).
  kRegRead,
  kShmRead,
  kDmaAlloc,
  kGetRandBytes,
  kGetTimestamp,
  kWaitIrq,
  kCopyFromDma,
  kPioIn,
  // Output events.
  kRegWrite,
  kShmWrite,
  kDelay,
  kCopyToDma,
  kPioOut,
  // Meta events.
  kPollReg,
  kPollShm,
};

const char* EventKindName(EventKind k);

struct TemplateEvent {
  EventKind kind = EventKind::kRegRead;

  // Register interface (kReg*, kPollReg, kPio*).
  uint16_t device = 0;
  uint64_t reg_off = 0;

  // Shared-memory interface (kShm*, kPollShm): symbolic address over earlier
  // dma_alloc bindings, e.g. (dma0 + 0x18).
  ExprRef addr;

  // Inputs bind their observed value to this symbol for later events.
  std::string bind;

  // True when deviation from |constraint| means device-state divergence (§3.3).
  bool state_changing = false;
  Constraint constraint;

  // Outputs: value expression. dma_alloc: size. delay: microseconds.
  // wait_irq: unused. copies/pio: length expression.
  ExprRef value;

  // Copies / PIO: program buffer parameter and symbolic offset into it.
  std::string buffer;
  ExprRef buf_offset;

  // wait_irq.
  int irq_line = -1;

  // Poll meta events: terminate when Compare(poll_cmp, v & mask, want) holds.
  uint32_t mask = 0;
  uint32_t want = 0;
  Cmp poll_cmp = Cmp::kEq;
  uint64_t timeout_us = 0;
  uint64_t interval_us = 0;
  std::vector<TemplateEvent> body;  // executed per failed poll iteration
  uint32_t recorded_iters = 0;      // iterations observed at record time (stats)

  // Recording site in the gold driver, for divergence reports (§5).
  std::string file;
  int line = 0;
};

}  // namespace dlt

#endif  // SRC_CORE_EVENT_H_
