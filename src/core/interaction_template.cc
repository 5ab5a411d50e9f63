#include "src/core/interaction_template.h"

namespace dlt {

EventBreakdown InteractionTemplate::CountEvents() const {
  EventBreakdown b;
  for (const auto& e : events) {
    switch (ClassOf(e.kind)) {
      case EventClass::kInput: ++b.input; break;
      case EventClass::kOutput: ++b.output; break;
      case EventClass::kMeta: ++b.meta; break;
    }
  }
  return b;
}

std::vector<std::string> InteractionTemplate::ScalarParams() const {
  std::vector<std::string> out;
  for (const auto& p : params) {
    if (!p.is_buffer) {
      out.push_back(p.name);
    }
  }
  return out;
}

bool InteractionTemplate::Mergeable(const InteractionTemplate& a, const InteractionTemplate& b) {
  if (a.entry != b.entry || a.primary_device != b.primary_device) {
    return false;
  }
  return Constraint::Equal(a.initial, b.initial) && SameStateTransition(a.events, b.events);
}

}  // namespace dlt
