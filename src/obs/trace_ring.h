// Fixed-capacity lock-free trace ring. Producers claim a slot with one atomic
// fetch_add and write the event in place; when the ring is full the oldest
// events are overwritten (tracing must never block or abort a replay). The
// simulator is single-threaded today, but record campaigns and replays may
// move onto worker threads (ROADMAP north-star), so the ring is written to the
// multi-producer contract from the start.
#ifndef SRC_OBS_TRACE_RING_H_
#define SRC_OBS_TRACE_RING_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "src/obs/trace_event.h"

namespace dlt {

class TraceRing {
 public:
  // |capacity| is rounded up to a power of two of at least 2 (slot index =
  // seq & mask). Telemetry::Enable() picks the default size.
  explicit TraceRing(size_t capacity);
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void Push(const TraceEvent& e) {
    uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
    slots_[seq & mask_] = e;
  }

  size_t capacity() const { return slots_.size(); }
  // Total events ever pushed (monotonic, survives wrap-around).
  uint64_t pushed() const { return head_.load(std::memory_order_relaxed); }
  // Events lost to overwrite: pushed - retained.
  uint64_t dropped() const;
  size_t size() const;  // retained events, <= capacity

  // Copies retained events oldest-first. Quiescent callers only (exporter,
  // tests): a concurrent Push may tear the oldest slot.
  std::vector<TraceEvent> Snapshot() const;

  void Clear() { head_.store(0, std::memory_order_relaxed); }

 private:
  std::vector<TraceEvent> slots_;
  uint64_t mask_;
  std::atomic<uint64_t> head_{0};
};

}  // namespace dlt

#endif  // SRC_OBS_TRACE_RING_H_
