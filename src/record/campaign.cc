#include "src/record/campaign.h"

namespace dlt {

bool RecordCampaign::AddTemplate(InteractionTemplate t) {
  for (auto& existing : templates_) {
    if (InteractionTemplate::Mergeable(existing, t)) {
      // The kept template now stands for both runs: clean only if both were.
      existing.leaves_clean_state = existing.leaves_clean_state && t.leaves_clean_state;
      return false;
    }
  }
  templates_.push_back(std::move(t));
  return true;
}

DriverletPackage RecordCampaign::MakePackage() const {
  DriverletPackage pkg;
  pkg.driverlet = driverlet_name_;
  pkg.templates = templates_;
  return pkg;
}

std::vector<uint8_t> RecordCampaign::Seal(std::string_view key, PackageSizes* sizes) const {
  return SealPackage(MakePackage(), key, sizes);
}

}  // namespace dlt
