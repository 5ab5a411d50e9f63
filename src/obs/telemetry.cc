#include "src/obs/telemetry.h"

#include <cstdlib>

namespace dlt {

Telemetry& Telemetry::Get() {
  static Telemetry* instance = new Telemetry();  // leaked: outlives static dtors
  return *instance;
}

// The ring starts at its 2-slot minimum; the first Enable() grows it, so a
// process that never traces holds no 4.5 MiB ring.
Telemetry::Telemetry() : ring_(std::make_unique<TraceRing>(2)) {
  const char* env = std::getenv("DLT_TRACE");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') {
    Enable();
  }
}

void Telemetry::Enable(size_t ring_capacity) {
  if (ring_->capacity() < ring_capacity) {
    ring_ = std::make_unique<TraceRing>(ring_capacity);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Telemetry::Disable() { enabled_.store(false, std::memory_order_relaxed); }

void Telemetry::Reset() {
  ring_->Clear();
  metrics_.Reset();
}

void Telemetry::Instant(TraceKind k, uint64_t ts_us, std::string_view name, uint64_t arg0,
                        uint64_t arg1, uint16_t device) {
  TraceEvent e;
  e.kind = k;
  e.ts_us = ts_us;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.device = device;
  e.set_name(name);
  ring_->Push(e);
}

void Telemetry::Span(TraceKind k, uint64_t ts_us, uint64_t dur_us, std::string_view name,
                     uint64_t arg0, uint64_t arg1, uint16_t device) {
  TraceEvent e;
  e.kind = k;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.device = device;
  e.set_name(name);
  ring_->Push(e);
}

}  // namespace dlt
