// InteractionTemplate: the record outcome (paper §4.1). Exposes a callable
// interface with the same signature as the recorded kernel entry; prescribes
// the linear sequence of input/output/meta events a faithful replay executes.
#ifndef SRC_CORE_INTERACTION_TEMPLATE_H_
#define SRC_CORE_INTERACTION_TEMPLATE_H_

#include <string>
#include <vector>

#include "src/core/event.h"

namespace dlt {

struct ParamSpec {
  std::string name;
  bool is_buffer = false;  // scalar (constraint-checked) vs data buffer
};

struct InteractionTemplate {
  // Template name within its driverlet, e.g. "RD_8", "WR_256", "OneShot".
  std::string name;
  // Replay entry this template implements, e.g. "replay_mmc".
  std::string entry;
  std::vector<ParamSpec> params;

  // Initial constraints over scalar params; template selection evaluates these
  // against trustlet inputs (paper §5 "Selecting an interaction template").
  Constraint initial;

  // Device to soft-reset between executions and upon divergence.
  uint16_t primary_device = 0;

  // Record-time fact, signed with the package: every record run merged into
  // this template ended with the primary device in its post-reset state as
  // far as MmioDevice::StateDigest can observe. After a first-attempt success
  // of such a template the replayer may skip the next reset on that device.
  bool leaves_clean_state = false;

  std::vector<TemplateEvent> events;

  // Names of scalar params in declaration order.
  std::vector<std::string> ScalarParams() const;
};

}  // namespace dlt

#endif  // SRC_CORE_INTERACTION_TEMPLATE_H_
