// Distills a raw recording into an interaction template. Path conditions are
// already attached when the run ends (RecordSession attaches each at its
// branch, paper §4.2 Challenge I) and symbolic output values arrived via taint
// tracking (Challenge II), so the builder only lifts open-coded polling loops
// into poll meta events (Challenge III), in place, and moves the remaining
// events into the template.
#ifndef SRC_RECORD_TEMPLATE_BUILDER_H_
#define SRC_RECORD_TEMPLATE_BUILDER_H_

#include "src/record/record_session.h"

namespace dlt {

Result<InteractionTemplate> BuildTemplate(RawRecording&& raw);

// Exposed for targeted testing: collapses repeated read(+delay)+condition
// sequences into poll meta events. Returns the number of loops lifted.
int LiftPollingLoops(std::vector<TemplateEvent>* events);

}  // namespace dlt

#endif  // SRC_RECORD_TEMPLATE_BUILDER_H_
