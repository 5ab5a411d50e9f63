#include "src/soc/irq.h"

#include <cstddef>

#include "src/obs/telemetry.h"
#include "src/soc/sim_clock.h"

namespace dlt {

void InterruptController::Raise(int line) {
  if (!ValidLine(line)) {
    return;
  }
  if (fault_hook_ != nullptr && !fault_hook_->OnRaise(line)) {
    return;  // dropped, or the injector re-raises it later (delayed delivery)
  }
  bool was_pending = Pending(line);
  if (line < 64) {
    pending_mask_ |= (uint64_t{1} << line);
  } else {
    pending_hi_ |= (uint32_t{1} << (line - 64));
  }
  if (!was_pending) {
    ++raise_counts_[static_cast<size_t>(line)];
    Telemetry& t = Telemetry::Get();
    if (t.enabled()) {
      t.metrics().counter("irq.raises").Inc();
      if (clock_ != nullptr) {
        t.Instant(TraceKind::kIrqRaise, clock_->now_us(), "irq_raise",
                  static_cast<uint64_t>(line));
      }
    }
  }
}

void InterruptController::Clear(int line) {
  if (!ValidLine(line)) {
    return;
  }
  if (line < 64) {
    pending_mask_ &= ~(uint64_t{1} << line);
  } else {
    pending_hi_ &= ~(uint32_t{1} << (line - 64));
  }
}

bool InterruptController::Pending(int line) const {
  if (!ValidLine(line)) {
    return false;
  }
  if (line < 64) {
    return (pending_mask_ >> line) & 1;
  }
  return (pending_hi_ >> (line - 64)) & 1;
}

uint64_t InterruptController::raise_count(int line) const {
  if (!ValidLine(line)) {
    return 0;
  }
  return raise_counts_[static_cast<size_t>(line)];
}

}  // namespace dlt
