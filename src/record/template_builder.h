// Distills a raw recording into an interaction template:
//  1. attaches path conditions (constraint discovery, paper §4.2 Challenge I):
//     conditions over params become the template's initial constraints;
//     conditions over device/env inputs attach to the binding event and mark
//     it state-changing;
//  2. lifts open-coded polling loops into poll meta events (Challenge III);
//  3. symbolic output values arrived via taint tracking in the session
//     (Challenge II) and are kept as-is.
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
