#include "src/obs/edge.h"

namespace dlt {

EdgeCoverage& EdgeCoverage::Get() {
  static EdgeCoverage* g = new EdgeCoverage();
  return *g;
}

size_t EdgeCoverage::distinct() const {
  size_t n = 0;
  for (const auto& c : cells_) {
    if (c.load(std::memory_order_relaxed) != 0) {
      ++n;
    }
  }
  return n;
}

void EdgeCoverage::Reset() {
  for (auto& c : cells_) {
    c.store(0, std::memory_order_relaxed);
  }
}

const char* EdgeName(size_t index) {
  static const char* kNames[] = {
      "service.register",         "service.register_reject",
      "service.open",             "service.open_reject",
      "service.close",            "service.invoke_ok",
      "service.invoke_fail",      "service.quarantine",
      "service.integrity_quarantine", "service.quarantine_reject",
      "service.measurement_mismatch", "service.batch",
      "ring.push",                "ring.full",
      "ring.wrap",                "ring.doorbell",
      "ring.empty_doorbell",      "ring.pop",
      "ring.pop_empty",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(Edge::kNamedCount));
  // EventKind order (src/core/event.h); dlt_obs sits below dlt_core, so the
  // labels are spelled out rather than taken from EventKindName.
  static const char* kKindNames[] = {
      "exec.reg_read",      "exec.shm_read",    "exec.dma_alloc",   "exec.get_rand_bytes",
      "exec.get_ts",        "exec.wait_for_irq", "exec.copy_from_dma", "exec.pio_in",
      "exec.reg_write",     "exec.shm_write",   "exec.delay",       "exec.copy_to_dma",
      "exec.pio_out",       "exec.poll_reg",    "exec.poll_shm",
  };
  static_assert(sizeof(kKindNames) / sizeof(kKindNames[0]) <= kEdgeKindCells);
  if (index < static_cast<size_t>(Edge::kNamedCount)) {
    return kNames[index];
  }
  if (index >= kEdgeKindBase && index < kEdgeMapSize) {
    size_t kind = index - kEdgeKindBase;
    return kind < sizeof(kKindNames) / sizeof(kKindNames[0]) ? kKindNames[kind] : "exec";
  }
  return "?";
}

}  // namespace dlt
