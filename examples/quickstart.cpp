// Quickstart: the complete driverlet lifecycle in one file.
//
//   1. Developer machine: exercise the gold MMC driver in a record campaign;
//      the recorder distills signed interaction templates (a "driverlet").
//   2. Deployment machine: firmware assigns the MMC instance to the TEE; a
//      trustlet links the replayer + the driverlet and performs secure IO
//      without any driver code in the TEE.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>

#include "src/core/replayer.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"

using namespace dlt;

int main() {
  std::printf("== 1. Record campaign on the developer machine ==\n");
  Rpi3Testbed dev_machine{TestbedOptions{}};  // gold drivers probed natively
  Result<RecordCampaign> campaign = RecordMmcCampaign(&dev_machine);
  if (!campaign.ok()) {
    std::fprintf(stderr, "record campaign failed: %s\n", StatusName(campaign.status()));
    return 1;
  }
  std::printf("   %zu interaction templates recorded\n", campaign->templates().size());
  std::printf("   coverage: %s\n", campaign->CoverageReport().c_str());

  PackageSizes sizes;
  std::vector<uint8_t> driverlet = campaign->Seal(kDeveloperKey, &sizes);
  std::printf("   sealed driverlet: %zu bytes (%zu before compression), signed\n\n",
              sizes.sealed, sizes.serialized);

  std::printf("== 2. Secure IO on the deployment machine ==\n");
  TestbedOptions deploy_opts;
  deploy_opts.secure_io = true;       // TZASC assigns MMC + DMA to the TEE
  deploy_opts.probe_drivers = false;  // no driver in the TEE: only the replayer
  Rpi3Testbed machine{deploy_opts};

  Replayer replayer(&machine.tee(), kDeveloperKey);
  if (!Ok(replayer.LoadPackage(driverlet.data(), driverlet.size()))) {
    std::fprintf(stderr, "package rejected\n");
    return 1;
  }
  std::printf("   signature verified, %zu templates loaded into the TEE\n",
              replayer.templates().size());

  // The normal world cannot reach the device anymore:
  Result<uint32_t> probe = machine.machine().mem().Read32(World::kNormal, kMmcBase);
  std::printf("   normal-world register read: %s\n", StatusName(probe.status()));

  // A trustlet writes a secret and reads it back through the driverlet. Note
  // blkcnt=5 and this block address were never recorded — the templates accept
  // dynamic inputs inside their constraint regions.
  const char* secret = "TEE-held credential: totp-seed-19ab44";
  std::vector<uint8_t> block(5 * 512, 0);
  std::snprintf(reinterpret_cast<char*>(block.data()), block.size(), "%s", secret);

  ReplayArgs args;
  args.scalars = {{"rw", kMmcRwWrite}, {"blkcnt", 5}, {"blkid", 131072}, {"flag", 0}};
  args.buffers["buf"] = BufferView{block.data(), block.size()};
  Result<ReplayStats> wr = replayer.Invoke(kMmcEntry, args);
  if (!wr.ok()) {
    std::fprintf(stderr, "write failed: %s\n", StatusName(wr.status()));
    return 1;
  }
  std::printf("   wrote 5 blocks via template %s (%zu events replayed)\n",
              wr->template_name.c_str(), wr->events_executed);

  std::vector<uint8_t> readback(5 * 512, 0);
  args.scalars["rw"] = kMmcRwRead;
  args.buffers["buf"] = BufferView{readback.data(), readback.size()};
  Result<ReplayStats> rd = replayer.Invoke(kMmcEntry, args);
  if (!rd.ok()) {
    std::fprintf(stderr, "read failed: %s\n", StatusName(rd.status()));
    return 1;
  }
  std::printf("   read back via %s: \"%s\"\n", rd->template_name.c_str(),
              reinterpret_cast<char*>(readback.data()));
  bool match = readback == block;
  std::printf("   data integrity: %s\n", match ? "OK" : "MISMATCH");
  return match ? 0 : 1;
}
