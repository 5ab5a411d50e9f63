// Baseline comparison beyond the paper's figures (related-work ablation):
// secure IO through driverlets vs the status-quo alternative of delegating IO
// to the untrusted OS [paper refs 24, 28, 46]. Delegation is fast (the OS keeps
// its page cache) but exposes every plaintext byte to the OS; driverlets keep
// exposure at zero for a bounded throughput cost.
#include <cstdio>

#include "src/workload/deploy_util.h"
#include "src/workload/delegated_block_device.h"
#include "src/workload/minidb.h"
#include "src/workload/replay_block_device.h"
#include "src/workload/sqlite_scripts.h"

int main() {
  using namespace dlt;
  std::printf("Delegation baseline: driverlet secure IO vs trustlet->OS delegation\n\n");
  std::vector<uint8_t> pkg = BuildMmcPackage();
  if (pkg.empty()) {
    return 1;
  }

  std::printf("%-10s  %14s %14s %16s\n", "script", "driverlet", "delegated", "bytes exposed");
  std::printf("%-10s  %14s %14s %16s\n", "", "(IOPS)", "(IOPS)", "to the OS");
  PrintRule(62);
  for (const std::string& script : SqliteScriptNames()) {
    // Driverlet path (in-TEE replay).
    double dlt_iops = 0;
    {
      Deployment d = MakeDeployment(pkg);
      ReplayBlockDevice rdev(d.service.get(), d.session, kMmcEntry);
      CountingBlockDevice counter(&rdev);
      MiniDb db(&counter);
      if (!Ok(db.Open()) || !Ok(PopulateDb(&db, 600, 11))) {
        return 1;
      }
      Result<ScriptResult> r = RunSqliteScript(script, &db, &counter, &d.tb->clock(), 40, 99);
      if (!r.ok()) {
        return 1;
      }
      dlt_iops = r->iops();
    }
    // Delegation path: SMC to the OS, which serves the request natively.
    double del_iops = 0;
    uint64_t exposed = 0;
    {
      Rpi3Testbed tb{TestbedOptions{}};
      PageCacheBlockDevice os_cache(&tb.mmc_driver(), &tb.machine(),
                                    PageCacheBlockDevice::SyncMode::kWriteback, 10);
      DelegatedBlockDevice delegated(&os_cache, &tb.machine());
      CountingBlockDevice counter(&delegated);
      MiniDb db(&counter);
      if (!Ok(db.Open()) || !Ok(PopulateDb(&db, 600, 11))) {
        return 1;
      }
      uint64_t exposed0 = delegated.exposed_bytes();
      Result<ScriptResult> r = RunSqliteScript(script, &db, &counter, &tb.clock(), 40, 99);
      if (!r.ok()) {
        return 1;
      }
      del_iops = r->iops();
      exposed = delegated.exposed_bytes() - exposed0;
    }
    std::printf("%-10s  %14.0f %14.0f %13.1f MB\n", script.c_str(), dlt_iops, del_iops,
                static_cast<double>(exposed) / 1e6);
  }
  PrintRule(62);
  std::printf(
      "\nDelegation matches native throughput (it IS the native path plus two world\n"
      "switches per request) but the OS observes the entire plaintext IO stream —\n"
      "the leak driverlets close. The driverlet column runs the default reset policy\n"
      "(no soft reset after templates recorded as leaving the device clean); with a\n"
      "reset before every template, the paper's design, the driverlet stays within\n"
      "the paper's 1.4-2.7x overhead.\n");
  return 0;
}
