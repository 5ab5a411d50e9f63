// Differential re-execution: the validation role concolic forking plays in the
// paper (§4.2, Challenge I). Two record runs of the same entry with different
// inputs either externalize the same device state transition path (their output
// event sequences are structurally identical) or a state-changing input was
// crossed. Campaign tooling uses this to confirm constraint boundaries.
#ifndef SRC_RECORD_DIFFER_H_
#define SRC_RECORD_DIFFER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/record/record_session.h"

namespace dlt {

// Renders the externalized state-transition path of a raw recording: the
// ordered identities of output events, DMA allocations and IRQ waits. Symbolic
// values (register offsets, descriptor address shapes) participate; concrete
// data content does not.
std::string TransitionSignature(const RawRecording& raw);

// True iff both recordings took the same device state-transition path.
bool SameTransitionPath(const RawRecording& a, const RawRecording& b);

// Differential validation of a template's constraint region (what the paper's
// concolic forking establishes at record time, validated experimentally as in
// §7.2 "stress testing templates"): inputs inside the covered region must
// reproduce the recorded transition path; inputs outside must take a different
// one. |probe| re-runs the gold driver with the given scalar inputs and returns
// the externalized TransitionSignature.
struct RegionValidation {
  int in_region_total = 0;
  int in_region_same = 0;
  int out_region_total = 0;
  int out_region_diverged = 0;
  std::vector<std::string> violations;

  bool ok() const {
    // violations catches failures the counters can't express, e.g. the
    // reference run itself failing before any probe ran.
    return violations.empty() && in_region_same == in_region_total &&
           out_region_diverged == out_region_total;
  }
};

using TransitionProbe = std::function<Result<std::string>(const Bindings&)>;

RegionValidation ValidateTransitionRegion(const TransitionProbe& probe,
                                          const Bindings& recorded_inputs,
                                          const std::vector<Bindings>& in_region_probes,
                                          const std::vector<Bindings>& out_region_probes);

}  // namespace dlt

#endif  // SRC_RECORD_DIFFER_H_
