// Reproduces paper Table 3: breakdown of the 10 MMC interaction templates
// produced by the record campaign (RD/WR x {1,8,32,128,256} blocks), with the
// input/output/meta event counts per template, plus the campaign's cumulative
// input-space coverage report (§4 "How to use").
#include <cstdio>

#include "src/workload/deploy_util.h"

int main() {
  using namespace dlt;
  Rpi3Testbed dev{TestbedOptions{}};
  Result<RecordCampaign> campaign = RecordMmcCampaign(&dev);
  if (!campaign.ok()) {
    std::fprintf(stderr, "campaign failed: %s\n", StatusName(campaign.status()));
    return 1;
  }

  std::printf("Table 3: breakdown of %zu interaction templates of MMC\n",
              campaign->templates().size());
  std::printf("replay entry: replay_mmc(rw, blkcnt, blkid, flag, buf)\n");
  PrintRule();
  std::printf("%-8s", "Events");
  const uint64_t kCounts[] = {1, 8, 32, 128, 256};
  for (uint64_t c : kCounts) {
    std::printf("  RW_%-7llu", static_cast<unsigned long long>(c));
  }
  std::printf("\n");
  PrintRule();

  auto find = [&](const std::string& name) -> const InteractionTemplate* {
    for (const auto& t : campaign->templates()) {
      if (t.name == name) {
        return &t;
      }
    }
    return nullptr;
  };
  const char* kRows[] = {"Input", "Output", "Meta"};
  for (int row = 0; row < 3; ++row) {
    std::printf("%-8s", kRows[row]);
    for (uint64_t c : kCounts) {
      const InteractionTemplate* rd = find("RD_" + std::to_string(c));
      const InteractionTemplate* wr = find("WR_" + std::to_string(c));
      int rv = 0;
      int wv = 0;
      if (rd != nullptr && wr != nullptr) {
        EventBreakdown rb = CountEvents(*rd);
        EventBreakdown wb = CountEvents(*wr);
        rv = row == 0 ? rb.input : row == 1 ? rb.output : rb.meta;
        wv = row == 0 ? wb.input : row == 1 ? wb.output : wb.meta;
      }
      std::printf("  %3d/%-6d", rv, wv);
    }
    std::printf("\n");
  }
  PrintRule();
  std::printf("(RD/WR templates of the same blkcnt shown in one column, separated by '/')\n\n");

  std::printf("Cumulative input-space coverage:\n  %s\n", campaign->CoverageReport().c_str());
  std::printf("\nPer-template selection constraints:\n");
  for (const auto& t : campaign->templates()) {
    std::printf("  %-8s require %s\n", t.name.c_str(), t.initial.ToString().c_str());
  }
  return 0;
}
