// Record campaign bookkeeping (paper §4, "How to use"): accumulate templates
// from record runs, merge duplicates that externalize the same state-transition
// path (§4.3), report cumulative input coverage, and seal the signed package.
#ifndef SRC_RECORD_CAMPAIGN_H_
#define SRC_RECORD_CAMPAIGN_H_

#include <string>
#include <vector>

#include "src/record/coverage.h"
#include "src/record/package_writer.h"

namespace dlt {

// A template's event count per class of the paper's Table 1 (Tables 3 and 5).
struct EventBreakdown {
  int input = 0;
  int output = 0;
  int meta = 0;
  int total() const { return input + output + meta; }
};

EventBreakdown CountEvents(const InteractionTemplate& t);

// Structural equality ignoring recorded concrete artifacts (source location,
// recorded poll iterations).
bool SameStateTransition(const TemplateEvent& a, const TemplateEvent& b);
bool SameStateTransition(const std::vector<TemplateEvent>& a, const std::vector<TemplateEvent>& b);

// True when both templates externalize the same device state transition path
// (the recorder merges such duplicates, §4.3).
bool Mergeable(const InteractionTemplate& a, const InteractionTemplate& b);

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

  // A copy of the templates as an unsealed package.
  DriverletPackage MakePackage() const;
  // Concludes the campaign: signs the templates, read in place, into a package.
  std::vector<uint8_t> Seal(std::string_view key, PackageSizes* sizes = nullptr) const;

 private:
  std::string driverlet_name_;
  std::vector<InteractionTemplate> templates_;
};

}  // namespace dlt

#endif  // SRC_RECORD_CAMPAIGN_H_
