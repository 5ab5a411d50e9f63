#include "src/core/interaction_template.h"

namespace dlt {

std::vector<std::string> InteractionTemplate::ScalarParams() const {
  std::vector<std::string> out;
  for (const auto& p : params) {
    if (!p.is_buffer) {
      out.push_back(p.name);
    }
  }
  return out;
}

}  // namespace dlt
