// EdgeCoverage: a tiny process-wide edge-counter map — the cheap coverage
// signal the boundary fuzzer (src/check/fuzz.h, docs/fuzzing.md) feeds on.
// Unlike the Telemetry counters (string-keyed, registration-order visited),
// this is a fixed array of relaxed atomics indexed by a compile-time site id,
// so instrumented hot paths (ReplayService, InvocationRing, Executor
// dispatch) pay one predictable branch when the map is disarmed and one
// relaxed fetch_add when armed. The fuzzer arms it around each boundary
// program, buckets the counts, and keeps inputs that light new cells.
#ifndef SRC_OBS_EDGE_H_
#define SRC_OBS_EDGE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace dlt {

// Named instrumentation sites. Keep appending — ids are not persisted
// anywhere except within one fuzzing process.
enum class Edge : uint32_t {
  // ReplayService boundary.
  kServiceRegister,
  kServiceRegisterReject,
  kServiceOpen,
  kServiceOpenReject,
  kServiceClose,
  kServiceInvokeOk,
  kServiceInvokeFail,
  kServiceQuarantine,
  kServiceIntegrityQuarantine,
  kServiceQuarantineReject,
  kServiceMeasurementMismatch,
  kServiceQueueSubmit,
  kServiceQueueReject,
  kServiceQueueDrain,
  kServiceBatch,
  kServiceSessionGone,
  // InvocationRing.
  kRingPush,
  kRingFull,
  kRingWrap,
  kRingDoorbell,
  kRingEmptyDoorbell,
  kRingPop,
  kRingPopEmpty,

  kNamedCount,
};

// Executor hits, one cell per executed EventKind, occupy
// [kEdgeKindBase, kEdgeKindBase + kEdgeKindCells).
inline constexpr size_t kEdgeKindBase = 32;
inline constexpr size_t kEdgeKindCells = 16;
inline constexpr size_t kEdgeMapSize = kEdgeKindBase + kEdgeKindCells;
static_assert(static_cast<size_t>(Edge::kNamedCount) <= kEdgeKindBase);

class EdgeCoverage {
 public:
  static EdgeCoverage& Get();

  void Arm() { armed_.store(true, std::memory_order_relaxed); }
  void Disarm() { armed_.store(false, std::memory_order_relaxed); }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  void Hit(Edge e) { HitIndex(static_cast<size_t>(e)); }
  void HitIndex(size_t i) {
    if (!armed() || i >= kEdgeMapSize) {
      return;
    }
    cells_[i].fetch_add(1, std::memory_order_relaxed);
  }

  uint32_t count(size_t i) const {
    return i < kEdgeMapSize ? cells_[i].load(std::memory_order_relaxed) : 0;
  }
  size_t map_size() const { return kEdgeMapSize; }
  // Cells with at least one hit since the last Reset.
  size_t distinct() const;
  void Reset();

 private:
  EdgeCoverage() = default;

  std::atomic<bool> armed_{false};
  std::array<std::atomic<uint32_t>, kEdgeMapSize> cells_{};
};

// Human-readable site label for fuzz logs ("exec.reg_write" for the executor
// cells).
const char* EdgeName(size_t index);

}  // namespace dlt

#endif  // SRC_OBS_EDGE_H_
