#include "src/fault/fault_plan.h"

namespace dlt {

const char* FaultPlaneName(FaultPlane p) {
  switch (p) {
    case FaultPlane::kMmio: return "mmio";
    case FaultPlane::kDma: return "dma";
    case FaultPlane::kIrq: return "irq";
  }
  return "unknown";
}

const char* FaultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::kMmioCorruptRead: return "mmio_corrupt_read";
    case FaultKind::kMmioStuckValue: return "mmio_stuck_value";
    case FaultKind::kDmaCorrupt: return "dma_corrupt";
    case FaultKind::kDmaTruncate: return "dma_truncate";
    case FaultKind::kBusCorruptRead: return "bus_corrupt_read";
    case FaultKind::kBusCorruptWrite: return "bus_corrupt_write";
    case FaultKind::kIrqDrop: return "irq_drop";
    case FaultKind::kIrqDelay: return "irq_delay";
    case FaultKind::kIrqSpurious: return "irq_spurious";
    case FaultKind::kKindCount: break;
  }
  return "unknown";
}

uint64_t FaultRng::Next() {
  // splitmix64 (Steele et al.): full-period, seedable with any value.
  state_ += 0x9e3779b97f4a7c15ull;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool FaultRng::Draw(uint32_t prob_bp) {
  if (prob_bp >= 10000) {
    return true;
  }
  return Next() % 10000 < prob_bp;
}

FaultPlan MakePresetPlan(FaultPlane plane, uint64_t seed, const FaultTargets& targets) {
  FaultPlan plan(seed);
  // Seed-derived variation: where in the run the burst starts and what the
  // corruption payload looks like. A small skip spreads the faults away from
  // the first opportunity so different seeds hit different template events.
  FaultRng vary(seed * 0x9e3779b97f4a7c15ull + 1);
  uint64_t skip = vary.Next() % 24;
  uint64_t mask = (vary.Next() % 0xffff) | 0x1;  // never a zero XOR mask
  switch (plane) {
    case FaultPlane::kMmio: {
      FaultSpec s;
      s.kind = FaultKind::kMmioCorruptRead;
      s.device = targets.device;
      s.prob_bp = 400;  // 4% of register reads while the window is open
      s.skip = skip;
      s.max_faults = 1 + vary.Next() % 3;
      s.arg = mask;
      plan.Add(s);
      break;
    }
    case FaultPlane::kDma: {
      if (targets.dma_via_engine) {
        FaultSpec c;
        c.kind = FaultKind::kDmaCorrupt;
        c.prob_bp = 2500;
        c.skip = skip % 4;
        c.max_faults = 1 + vary.Next() % 2;
        c.arg = mask;
        plan.Add(c);
        FaultSpec t;
        t.kind = FaultKind::kDmaTruncate;
        t.prob_bp = 1500;
        t.skip = 1 + skip % 4;
        t.max_faults = 1;
        plan.Add(t);
      } else {
        FaultSpec r;
        r.kind = FaultKind::kBusCorruptRead;
        r.prob_bp = 500;
        r.skip = skip;
        r.max_faults = 1 + vary.Next() % 2;
        r.arg = mask;
        plan.Add(r);
        FaultSpec w;
        w.kind = FaultKind::kBusCorruptWrite;
        w.prob_bp = 500;
        w.skip = skip / 2;
        w.max_faults = 1;
        w.arg = mask;
        plan.Add(w);
      }
      break;
    }
    case FaultPlane::kIrq: {
      FaultSpec d;
      d.kind = FaultKind::kIrqDrop;
      d.irq_line = targets.irq_line;
      d.prob_bp = 2000;
      d.skip = skip % 8;
      d.max_faults = 1 + vary.Next() % 2;
      plan.Add(d);
      FaultSpec y;
      y.kind = FaultKind::kIrqDelay;
      y.irq_line = targets.irq_line;
      y.prob_bp = 2000;
      y.skip = 1 + skip % 8;
      y.max_faults = 2;
      y.arg = 50 + vary.Next() % 400;  // microseconds, well under wait timeouts
      plan.Add(y);
      break;
    }
  }
  return plan;
}

}  // namespace dlt
