// Record campaign bookkeeping (paper §4, "How to use"): accumulate templates
// from record runs, merge duplicates that externalize the same state-transition
// path (§4.3), report cumulative input coverage, and seal the signed package.
#ifndef SRC_RECORD_CAMPAIGN_H_
#define SRC_RECORD_CAMPAIGN_H_

#include <string>
#include <vector>

#include "src/core/package.h"
#include "src/record/coverage.h"

namespace dlt {

class RecordCampaign {
 public:
  explicit RecordCampaign(std::string driverlet_name)
      : driverlet_name_(std::move(driverlet_name)) {}

  // Adds a template produced by a record run. Returns false when an existing
  // template already covers the same state-transition path (merged away); the
  // existing template then keeps leaves_clean_state only if |t| had it too.
  bool AddTemplate(InteractionTemplate t);

  const std::vector<InteractionTemplate>& templates() const { return templates_; }

  Coverage ComputeCoverage() const { return ::dlt::ComputeCoverage(templates_); }
  std::string CoverageReport() const { return ::dlt::CoverageReport(ComputeCoverage()); }

  // Concludes the campaign: signs the (immutable) templates into a package.
  DriverletPackage MakePackage() const;
  std::vector<uint8_t> Seal(std::string_view key, PackageSizes* sizes = nullptr) const;

 private:
  std::string driverlet_name_;
  std::vector<InteractionTemplate> templates_;
};

}  // namespace dlt

#endif  // SRC_RECORD_CAMPAIGN_H_
