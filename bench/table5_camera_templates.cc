// Reproduces paper Table 5: event breakdown of the 3 camera interaction
// templates (OneShot / ShortBurst / LongBurst) — 9 record runs (3 frame counts
// x 3 resolutions) merging into 3 templates because the driver's transition
// path is resolution-independent (§6.3.2).
#include <cstdio>

#include "src/workload/deploy_util.h"

int main() {
  using namespace dlt;
  Rpi3Testbed dev{TestbedOptions{}};
  Result<RecordCampaign> campaign = RecordCameraCampaign(&dev);
  if (!campaign.ok()) {
    std::fprintf(stderr, "campaign failed: %s\n", StatusName(campaign.status()));
    return 1;
  }

  std::printf("Table 5: events breakdown of %zu interaction templates\n",
              campaign->templates().size());
  std::printf("replay entry: replay_camera(frame, resolution, buf, buf_size, img_size)\n");
  std::printf("record campaign: capture 1/10/100 frames at 720p/1080p/1440p (9 runs)\n");
  PrintRule();
  std::printf("%-8s  %-10s %-12s %-10s\n", "Events", "OneShot", "ShortBurst", "LongBurst");
  PrintRule();
  auto find = [&](const std::string& name) -> const InteractionTemplate* {
    for (const auto& t : campaign->templates()) {
      if (t.name == name) {
        return &t;
      }
    }
    return nullptr;
  };
  const char* kNames[] = {"OneShot", "ShortBurst", "LongBurst"};
  const char* kRows[] = {"Input", "Output", "Meta"};
  for (int row = 0; row < 3; ++row) {
    std::printf("%-8s", kRows[row]);
    for (const char* n : kNames) {
      const InteractionTemplate* t = find(n);
      int v = 0;
      if (t != nullptr) {
        EventBreakdown b = CountEvents(*t);
        v = row == 0 ? b.input : row == 1 ? b.output : b.meta;
      }
      std::printf("  %-10d", v);
    }
    std::printf("\n");
  }
  PrintRule();
  std::printf("\nCumulative coverage: %s\n", campaign->CoverageReport().c_str());
  std::printf("(resolution is unconstrained in the templates: all supported resolutions\n"
              " replay through the same transition path; unsupported ones diverge at the\n"
              " VC4 ack status check)\n");
  return 0;
}
