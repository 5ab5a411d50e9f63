// The traced run's only instrument inside the replay stack: a SecureWorld
// subclass that forwards every ReplayContext call the replayer makes to the
// plain SecureWorld and times it in both clocks. Nothing under src/ is
// instrumented; ReplayService is simply handed this world instead of the
// testbed's.
//
// Besides per-kind totals it measures the *gaps* between context calls inside
// a window (one service call). The replayer resets the device first thing in
// every attempt, so a gap that ends in SoftResetDevice is service-side work
// (batch entry, world switch, selection) and every other gap is the execution
// loop between two device accesses (executor dispatch and per-event
// integrity folding). The tail after the last call is service-side again.
#ifndef PERFBENCH_TIMED_WORLD_H_
#define PERFBENCH_TIMED_WORLD_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/tee/secure_world.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One timed interval of the traced run. |parent| indexes the enclosing span in
// the same log (-1 for a root); spans of one op share |op|.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t op = 0;
};

// In-memory span store, written out once when the run ends. Spans are kept
// for the first |cap| records only so a long run stays small; the per-layer
// totals never depend on it.
class SpanLog {
 public:
  explicit SpanLog(size_t cap) : cap_(cap) { spans_.reserve(cap < 65536 ? cap : 65536); }

  // Returns the span's index, or -1 once the log is full.
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns, int32_t parent, uint32_t op) {
    if (spans_.size() >= cap_) {
      return -1;
    }
    spans_.push_back(Span{name, start_ns, end_ns, parent, op});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void SetEnd(int32_t idx, int64_t end_ns) {
    if (idx >= 0) {
      spans_[static_cast<size_t>(idx)].end_ns = end_ns;
    }
  }
  const std::vector<Span>& spans() const { return spans_; }
  bool WriteJson(const std::string& path) const;

 private:
  size_t cap_;
  std::vector<Span> spans_;
};

// The context-call kinds the soc layer is split into.
enum SocKind : int { kMmio = 0, kDma, kIrq, kDelay, kReset, kSocKinds };

inline const char* SocKindName(int k) {
  static const char* const kNames[kSocKinds] = {"soc.mmio", "soc.dma", "soc.irq", "soc.delay",
                                                "soc.reset"};
  return kNames[k];
}

struct SocTotals {
  uint64_t calls[kSocKinds] = {};
  int64_t host_ns[kSocKinds] = {};
  uint64_t model_us[kSocKinds] = {};
  // Work units: register accesses for MMIO (a block PIO of n words counts
  // n), bytes moved for DMA/memory, 0 for the other kinds.
  uint64_t units[kSocKinds] = {};
  // Window gaps (see the file comment).
  int64_t gap_service_ns = 0;  // gaps ending in a reset, plus window tails
  int64_t gap_exec_ns = 0;     // gaps between two other context calls

  void Add(const SocTotals& o);
  int64_t soc_host_ns() const;
};

class TimedSecureWorld : public dlt::SecureWorld {
 public:
  // Maps |devices| (already assigned to the secure world by the testbed's
  // firmware) exactly as the testbed's own SecureWorld does.
  TimedSecureWorld(dlt::Machine* machine, const std::vector<uint16_t>& devices);

  // Timing is off until armed; while off every call is a plain forward.
  void Arm(SpanLog* log) {
    log_ = log;
    armed_ = true;
  }

  // A window is one client call into the service. Context calls inside it are
  // recorded as children of |parent_span| for op |op|.
  void BeginWindow(int32_t parent_span, uint32_t op);
  void EndWindow();

  // Totals since the last TakeTotals call.
  SocTotals TakeTotals();

  dlt::Result<uint32_t> RegRead32(uint16_t device, uint64_t offset) override;
  dlt::Status RegWrite32(uint16_t device, uint64_t offset, uint32_t value) override;
  dlt::Status RegReadBlock32(uint16_t device, uint64_t offset, uint32_t* out,
                             size_t words) override;
  dlt::Status RegWriteBlock32(uint16_t device, uint64_t offset, const uint32_t* values,
                              size_t words) override;
  dlt::Result<uint32_t> MemRead32(dlt::PhysAddr addr) override;
  dlt::Status MemWrite32(dlt::PhysAddr addr, uint32_t value) override;
  dlt::Status MemCopyIn(dlt::PhysAddr dst, const uint8_t* src, size_t len) override;
  dlt::Status MemCopyOut(uint8_t* dst, dlt::PhysAddr src, size_t len) override;
  dlt::Result<dlt::PhysAddr> DmaAlloc(uint64_t size) override;
  void DmaReleaseAll() override;
  dlt::Status WaitForIrq(int line, uint64_t timeout_us) override;
  void DelayUs(uint64_t us) override;
  dlt::Status SoftResetDevice(uint16_t device) override;

 private:
  // Wraps one forwarded call of |units| work units: times it in both clocks,
  // books the gap before it, and logs a span. Nested calls (a block PIO
  // falling back to per-word reads) are booked once, by the outermost call.
  template <typename Fn>
  auto Timed(int kind, uint64_t units, Fn&& fn) -> decltype(fn());

  bool armed_ = false;
  SpanLog* log_ = nullptr;
  int depth_ = 0;
  bool in_window_ = false;
  int64_t last_end_ns_ = 0;
  int32_t parent_span_ = -1;
  uint32_t op_ = 0;
  SocTotals totals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_WORLD_H_
