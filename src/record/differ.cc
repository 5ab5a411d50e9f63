#include "src/record/differ.h"

#include <sstream>

namespace dlt {

std::string TransitionSignature(const RawRecording& raw) {
  std::ostringstream os;
  for (const auto& e : raw.events) {
    switch (e.kind) {
      case EventKind::kRegWrite:
      case EventKind::kPioOut:
        os << EventKindName(e.kind) << ":" << e.device << ":0x" << std::hex << e.reg_off
           << std::dec << ";";
        break;
      case EventKind::kShmWrite:
      case EventKind::kCopyToDma:
        os << EventKindName(e.kind) << ":" << (e.addr != nullptr ? e.addr->ToString() : "?")
           << ";";
        break;
      case EventKind::kDmaAlloc:
        os << "dma_alloc:" << (e.value != nullptr ? e.value->ToString() : "?") << ";";
        break;
      case EventKind::kWaitIrq:
        os << "irq:" << e.irq_line << ";";
        break;
      default:
        break;  // plain inputs and delays do not identify the transition path
    }
  }
  return os.str();
}

bool SameTransitionPath(const RawRecording& a, const RawRecording& b) {
  return TransitionSignature(a) == TransitionSignature(b);
}

namespace {
std::string RenderBindings(const Bindings& b) {
  std::ostringstream os;
  for (const auto& [k, v] : b) {
    os << k << "=" << v << " ";
  }
  return os.str();
}
}  // namespace

RegionValidation ValidateTransitionRegion(const TransitionProbe& probe,
                                          const Bindings& recorded_inputs,
                                          const std::vector<Bindings>& in_region_probes,
                                          const std::vector<Bindings>& out_region_probes) {
  RegionValidation v;
  Result<std::string> reference = probe(recorded_inputs);
  if (!reference.ok()) {
    v.violations.push_back("reference run failed");
    return v;
  }
  for (const Bindings& b : in_region_probes) {
    ++v.in_region_total;
    Result<std::string> sig = probe(b);
    if (sig.ok() && *sig == *reference) {
      ++v.in_region_same;
    } else {
      v.violations.push_back("in-region probe took a different path: " + RenderBindings(b));
    }
  }
  for (const Bindings& b : out_region_probes) {
    ++v.out_region_total;
    Result<std::string> sig = probe(b);
    // A rejected run (driver refuses the input) also counts as diverged: the
    // input provably cannot ride the recorded path.
    if (!sig.ok() || *sig != *reference) {
      ++v.out_region_diverged;
    } else {
      v.violations.push_back("out-region probe reproduced the path: " + RenderBindings(b));
    }
  }
  return v;
}

}  // namespace dlt
