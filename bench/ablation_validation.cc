// Ablation/validation: differential region validation of the MMC templates —
// the experimental check that the recorder's constraint classification is
// sound (the role concolic forking plays in the paper §4.2; validated as in
// §7.2). Probes inside a template's constraint region must reproduce the
// recorded transition path; probes outside must not.
#include <cstdio>

#include "src/record/differ.h"
#include "src/record/record_session.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

// Re-runs the gold MMC driver with the given scalar inputs and returns the
// externalized transition signature.
Result<std::string> ProbeMmc(Rpi3Testbed* tb, const Bindings& inputs) {
  tb->ResetDevices();
  tb->kern_io().ReleaseDma();
  std::vector<uint8_t> buf(inputs.at("blkcnt") * 512, 0x5c);  // outlives the session
  RecordSession sess(&tb->kern_io(), kMmcEntry, "probe", tb->mmc_id());
  TValue rw = sess.ScalarParam("rw", inputs.at("rw"));
  TValue cnt = sess.ScalarParam("blkcnt", inputs.at("blkcnt"));
  TValue id = sess.ScalarParam("blkid", inputs.at("blkid"));
  TValue fl = sess.ScalarParam("flag", 0);
  sess.BufferParam("buf", buf.data(), buf.size());
  BcmSdhostDriver driver(&sess, tb->mmc_config());
  Status s = driver.Transfer(rw, cnt, id, fl, buf.data(), buf.size());
  if (!Ok(s)) {
    return s;
  }
  return TransitionSignature(sess.raw());
}

Bindings In(uint64_t rw, uint64_t blkcnt, uint64_t blkid) {
  return Bindings{{"rw", rw}, {"blkcnt", blkcnt}, {"blkid", blkid}};
}

}  // namespace
}  // namespace dlt

int main() {
  using namespace dlt;
  std::printf("Region validation: differential re-execution of the gold MMC driver\n");
  std::printf("around each template's constraint boundaries\n\n");
  Rpi3Testbed tb{TestbedOptions{}};
  TransitionProbe probe = [&tb](const Bindings& b) { return ProbeMmc(&tb, b); };

  struct Case {
    const char* name;
    Bindings recorded;
    std::vector<Bindings> in_probes;
    std::vector<Bindings> out_probes;
  };
  const uint64_t kRd = kMmcRwRead;
  const uint64_t kWr = kMmcRwWrite;
  std::vector<Case> cases = {
      {"RD_8 (blkcnt in (1,8], any aligned blkid)",
       In(kRd, 8, 2048),
       {In(kRd, 2, 2048), In(kRd, 5, 65536), In(kRd, 8, 8), In(kRd, 7, 1'000'000)},
       {In(kRd, 1, 2048), In(kRd, 9, 2048), In(kRd, 32, 2048), In(kWr, 8, 2048),
        In(kRd, 8, 2049)}},
      {"WR_32 (blkcnt in (24,32])",
       In(kWr, 32, 2048),
       {In(kWr, 25, 2048), In(kWr, 30, 512), In(kWr, 32, 4096)},
       {In(kWr, 24, 2048), In(kWr, 33, 2048), In(kRd, 32, 2048)}},
      {"RD_1 (exactly one block)",
       In(kRd, 1, 2048),
       {In(kRd, 1, 0), In(kRd, 1, 80'000)},
       {In(kRd, 2, 2048), In(kWr, 1, 2048)}},
  };

  bool all_ok = true;
  for (const Case& c : cases) {
    RegionValidation v = ValidateTransitionRegion(probe, c.recorded, c.in_probes, c.out_probes);
    std::printf("%-44s in-region %d/%d  out-region %d/%d  %s\n", c.name, v.in_region_same,
                v.in_region_total, v.out_region_diverged, v.out_region_total,
                v.ok() ? "OK" : "VIOLATION");
    for (const auto& msg : v.violations) {
      std::printf("    !! %s\n", msg.c_str());
    }
    all_ok = all_ok && v.ok();
  }
  std::printf(
      "\nEvery in-region probe rode the recorded state-transition path and every\n"
      "out-region probe left it: the constraints the recorder attached are exactly\n"
      "the boundaries of the externalized paths.\n");
  return all_ok ? 0 : 1;
}
