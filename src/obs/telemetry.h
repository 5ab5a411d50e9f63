// Telemetry: the process-wide observability facade instrumentation points talk
// to. Disabled by default — the disabled fast path is one relaxed atomic load
// and a branch, cheap enough to leave compiled into every hot path (SimClock
// virtual time is untouched either way, so benchmarks on manual time see zero
// drift). Enable() arms the trace ring + metrics registry; setting DLT_TRACE=1
// in the environment arms it at first use (how `fig8_micro` and ad-hoc runs
// opt in without code changes).
//
// Zero dependencies on the rest of the tree: src/obs sits below src/soc in the
// layering, and emit sites pass SimClock timestamps in explicitly.
#ifndef SRC_OBS_TELEMETRY_H_
#define SRC_OBS_TELEMETRY_H_

#include <atomic>
#include <memory>

#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"

namespace dlt {

class Telemetry {
 public:
  static Telemetry& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Arms tracing. The first call allocates the ring (until then it holds 2
  // slots), and a later call with a larger capacity reallocates it, so call
  // Enable() before any thread emits. Metrics registrations always survive
  // (hot paths cache Counter*/Histogram*).
  void Enable(size_t ring_capacity = 1 << 16);
  void Disable();
  // Clears ring contents and zeroes metrics; enabled state is unchanged.
  void Reset();

  TraceRing& ring() { return *ring_; }
  MetricsRegistry& metrics() { return metrics_; }

  // Emit helpers; callers must check enabled() first (keeps the disabled path
  // free of argument marshalling).
  void Instant(TraceKind k, uint64_t ts_us, std::string_view name, uint64_t arg0 = 0,
               uint64_t arg1 = 0, uint16_t device = 0);
  void Span(TraceKind k, uint64_t ts_us, uint64_t dur_us, std::string_view name,
            uint64_t arg0 = 0, uint64_t arg1 = 0, uint16_t device = 0);

 private:
  Telemetry();

  std::atomic<bool> enabled_{false};
  std::unique_ptr<TraceRing> ring_;
  MetricsRegistry metrics_;
};

}  // namespace dlt

#endif  // SRC_OBS_TELEMETRY_H_
