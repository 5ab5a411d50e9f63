// Driverlet inspector: developer tooling that opens a sealed driverlet package
// and prints its contents — template inventory, event breakdowns, selection
// constraints, state-changing events with recording sites, and the first
// template's full human-readable document (the paper's shipped format).
//
// Usage: driverlet_inspector [mmc|usb|camera]   (default: mmc)
#include <cstdio>
#include <cstring>

#include "src/core/executor.h"
#include "src/record/serialize_text.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"

using namespace dlt;

int main(int argc, char** argv) {
  const char* which = argc > 1 ? argv[1] : "mmc";
  std::printf("recording the %s driverlet on a developer machine...\n\n", which);

  Rpi3Testbed dev{TestbedOptions{}};
  Result<RecordCampaign> campaign =
      std::strcmp(which, "usb") == 0      ? RecordUsbCampaign(&dev)
      : std::strcmp(which, "camera") == 0 ? RecordCameraCampaign(&dev)
                                          : RecordMmcCampaign(&dev);
  if (!campaign.ok()) {
    std::fprintf(stderr, "campaign failed: %s\n", StatusName(campaign.status()));
    return 1;
  }
  PackageSizes sizes;
  std::vector<uint8_t> sealed = campaign->Seal(kDeveloperKey, &sizes);

  Result<DriverletPackage> pkg = OpenPackage(sealed.data(), sealed.size(), kDeveloperKey);
  if (!pkg.ok()) {
    std::fprintf(stderr, "package did not verify\n");
    return 1;
  }

  std::printf("driverlet \"%s\": %zu templates, %zu bytes sealed (%zu uncompressed)\n",
              pkg->driverlet.c_str(), pkg->templates.size(), sizes.sealed, sizes.serialized);
  std::printf("coverage: %s\n\n", CoverageReport(ComputeCoverage(pkg->templates)).c_str());

  for (const auto& t : pkg->templates) {
    EventBreakdown b = CountEvents(t);
    int state_changing = 0;
    for (const auto& e : t.events) {
      if (e.state_changing) {
        ++state_changing;
      }
    }
    std::printf("template %-10s entry=%s  events: %d in / %d out / %d meta  (%d state-changing)\n",
                t.name.c_str(), t.entry.c_str(), b.input, b.output, b.meta, state_changing);
  }

  const InteractionTemplate& first = pkg->templates.front();
  std::printf("\nstate-changing events of %s (the replay 'waypoints', with recording sites):\n",
              first.name.c_str());
  int shown = 0;
  for (const auto& e : first.events) {
    if (!e.state_changing) {
      continue;
    }
    std::printf("  %s", DescribeEvent(e).c_str());
    if (!e.constraint.empty()) {
      std::printf("   expects %s", e.constraint.ToString().c_str());
    }
    std::printf("\n");
    if (++shown >= 12) {
      std::printf("  ...\n");
      break;
    }
  }

  std::printf("\nfull human-readable document of %s (paper 7.3.4 format):\n\n",
              first.name.c_str());
  std::string text = TemplateToText(first);
  // Print at most 60 lines.
  size_t pos = 0;
  for (int line = 0; line < 60 && pos < text.size(); ++line) {
    size_t nl = text.find('\n', pos);
    std::printf("  %.*s\n", static_cast<int>(nl - pos), text.c_str() + pos);
    pos = nl + 1;
  }
  if (pos < text.size()) {
    std::printf("  ... (%zu more bytes)\n", text.size() - pos);
  }
  return 0;
}
