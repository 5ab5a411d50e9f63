// Reproduces paper Figure 6 (SQLite benchmarks for MMC and USB driverlets:
// IOPS of driverlet vs native vs native-sync across 6 scripts) and Table 9
// (per-script interaction-template invocation breakdown and read:write mix).
// The paper's columns replay with a reset before every template
// (ResetPolicy::kAlways, §5); one extra driverlet column runs the default
// policy, which skips the reset after templates recorded as leaving the
// device clean.
#include <cstdio>

#include "src/workload/deploy_util.h"
#include "src/workload/minidb.h"
#include "src/workload/replay_block_device.h"
#include "src/workload/sqlite_scripts.h"

namespace dlt {
namespace {

constexpr size_t kRows = 600;
constexpr size_t kQueries = 40;

struct ConfigResult {
  ScriptResult script;
  std::map<std::string, uint64_t> invocations;  // driverlet only
};

enum class Path { kDriverlet, kDriverletElided, kNative, kNativeSync };

Result<ConfigResult> RunOne(Path path, bool usb, const std::vector<uint8_t>& pkg,
                            const std::string& script) {
  ConfigResult out;
  if (path == Path::kDriverlet || path == Path::kDriverletElided) {
    Deployment d = MakeDeployment(pkg);
    d.replayer->set_reset_policy(path == Path::kDriverlet ? ResetPolicy::kAlways
                                                          : ResetPolicy::kUnlessClean);
    ReplayBlockDevice rdev(d.service.get(), d.session, usb ? kUsbEntry : kMmcEntry);
    CountingBlockDevice counter(&rdev);
    MiniDb db(&counter);
    DLT_RETURN_IF_ERROR(db.Open());
    DLT_RETURN_IF_ERROR(PopulateDb(&db, kRows, 11));
    DLT_ASSIGN_OR_RETURN(out.script, RunSqliteScript(script, &db, &counter, &d.tb->clock(),
                                                     kQueries, 99));
    out.invocations = rdev.invocations();
    return out;
  }
  TestbedOptions opts;
  auto tb = std::make_unique<Rpi3Testbed>(opts);
  RawBlockDriver* driver =
      usb ? static_cast<RawBlockDriver*>(&tb->usb_driver()) : &tb->mmc_driver();
  // A deliberately small kernel page cache: the paper's storage working sets
  // dwarf the RPi3's spare RAM, so native reads mostly reach the device.
  PageCacheBlockDevice cache(driver, &tb->machine(),
                             path == Path::kNative ? PageCacheBlockDevice::SyncMode::kWriteback
                                                   : PageCacheBlockDevice::SyncMode::kSync,
                             /*capacity_extents=*/10);
  CountingBlockDevice counter(&cache);
  MiniDb db(&counter);
  DLT_RETURN_IF_ERROR(db.Open());
  DLT_RETURN_IF_ERROR(PopulateDb(&db, kRows, 11));
  DLT_RETURN_IF_ERROR(cache.Flush());  // population writeback outside the window
  DLT_ASSIGN_OR_RETURN(out.script,
                       RunSqliteScript(script, &db, &counter, &tb->clock(), kQueries, 99));
  return out;
}

void RunDevice(bool usb, const std::vector<uint8_t>& pkg) {
  std::printf("\n===== SQLite-%s (Figure 6%s) =====\n", usb ? "USB" : "MMC", usb ? "b" : "a");
  std::printf("%-10s  %12s %12s %12s   %9s %13s   %12s\n", "script", "driverlet", "native",
              "native-sync", "nat/dlt", "dlt/nat-sync", "dlt-elided");
  std::printf("%-10s  %12s %12s %12s %28s %12s\n", "", "(IOPS)", "(IOPS)", "(IOPS)", "",
              "(IOPS)");
  PrintRule(99);
  double sum_dlt = 0;
  double sum_nat = 0;
  double sum_sync = 0;
  double sum_qps = 0;
  double sum_elided = 0;
  std::vector<ConfigResult> dlt_results;
  for (const std::string& script : SqliteScriptNames()) {
    Result<ConfigResult> dlt = RunOne(Path::kDriverlet, usb, pkg, script);
    Result<ConfigResult> nat = RunOne(Path::kNative, usb, pkg, script);
    Result<ConfigResult> sync = RunOne(Path::kNativeSync, usb, pkg, script);
    Result<ConfigResult> elided = RunOne(Path::kDriverletElided, usb, pkg, script);
    if (!dlt.ok() || !nat.ok() || !sync.ok() || !elided.ok()) {
      std::fprintf(stderr, "script %s failed\n", script.c_str());
      continue;
    }
    double di = dlt->script.iops();
    double ni = nat->script.iops();
    double si = sync->script.iops();
    double ei = elided->script.iops();
    std::printf("%-10s  %12.0f %12.0f %12.0f   %8.2fx %12.2fx   %12.0f\n", script.c_str(), di,
                ni, si, ni / di, di / si, ei);
    sum_dlt += di;
    sum_nat += ni;
    sum_sync += si;
    sum_qps += dlt->script.qps();
    sum_elided += ei;
    dlt_results.push_back(std::move(*dlt));
  }
  PrintRule(99);
  size_t n = SqliteScriptNames().size();
  std::printf("%-10s  %12.0f %12.0f %12.0f   %8.2fx %12.2fx   %12.0f\n", "average",
              sum_dlt / static_cast<double>(n), sum_nat / static_cast<double>(n),
              sum_sync / static_cast<double>(n), sum_nat / sum_dlt, sum_dlt / sum_sync,
              sum_elided / static_cast<double>(n));
  std::printf("driverlet average: %.0f IOPS, %.0f queries/second\n",
              sum_dlt / static_cast<double>(n), sum_qps / static_cast<double>(n));
  std::printf("driverlet average, reset elided after clean templates: %.0f IOPS, nat/dlt %.2fx\n",
              sum_elided / static_cast<double>(n), sum_nat / sum_elided);

  // Table 9: per-script template-invocation breakdown (driverlet path).
  std::printf("\nTable 9: breakdown of interaction template invocations (driverlet)\n");
  std::printf("%-10s  %7s %7s %7s %7s %7s   %5s\n", "script", "RW_1", "RW_8", "RW_32", "RW_128",
              "RW_256", "R:W");
  PrintRule(70);
  for (size_t i = 0; i < dlt_results.size(); ++i) {
    const ConfigResult& r = dlt_results[i];
    auto inv = [&](const std::string& suffix) {
      uint64_t v = 0;
      for (const auto& [name, count] : r.invocations) {
        if (name.substr(2) == suffix) {  // RD_x + WR_x merged
          v += count;
        }
      }
      return v;
    };
    double reads = static_cast<double>(r.script.reads);
    double writes = static_cast<double>(r.script.writes);
    double total = reads + writes;
    int rr = total > 0 ? static_cast<int>(reads / total * 10 + 0.5) : 0;
    std::printf("%-10s  %7llu %7llu %7llu %7llu %7llu   %2d:%-2d\n",
                r.script.name.c_str(), static_cast<unsigned long long>(inv("_1")),
                static_cast<unsigned long long>(inv("_8")),
                static_cast<unsigned long long>(inv("_32")),
                static_cast<unsigned long long>(inv("_128")),
                static_cast<unsigned long long>(inv("_256")), rr, 10 - rr);
  }
}

}  // namespace
}  // namespace dlt

int main() {
  using namespace dlt;
  std::printf("Figure 6 + Table 9: SQLite (MiniDb) storage benchmarks\n");
  std::printf("rows=%zu, queries/script=%zu; IOPS = block-device requests per simulated second\n",
              kRows, kQueries);
  std::vector<uint8_t> mmc_pkg = BuildMmcPackage();
  std::vector<uint8_t> usb_pkg = BuildUsbPackage();
  if (mmc_pkg.empty() || usb_pkg.empty()) {
    return 1;
  }
  RunDevice(/*usb=*/false, mmc_pkg);
  RunDevice(/*usb=*/true, usb_pkg);
  std::printf("\nPaper reference: MMC driverlet 434 IOPS avg, native 1.8x higher (1.4x read-most\n"
              "to 2x write-most), native-sync 1.5x below driverlet; USB driverlet 369 IOPS,\n"
              "native 1.5x higher, native-sync 1.2x below driverlet.\n");
  return 0;
}
