// Reproduces paper Figure 8: microbenchmarks — latency of executing a single
// interaction template (driverlet) vs the same request through the full driver
// + block layer (native), for MMC and USB at every recorded granularity.
// Uses google-benchmark with manual (simulated) time.
//
// On top of the paper's block-device comparison, a registry-driven sweep
// (`Driverlet_<class>_Covered`) measures one covered invoke per registered
// driverlet class — the class list comes from RegisteredDriverletClasses()
// (src/workload/deploy_util.h), so a new class shows up here without edits.
#include <benchmark/benchmark.h>

#include "src/workload/deploy_util.h"
#include "src/obs/telemetry.h"
#include "src/workload/sqlite_scripts.h"
#include "tests/../src/kern/block_layer.h"

namespace dlt {
namespace {

std::vector<uint8_t>& MmcPkg() {
  static std::vector<uint8_t> pkg = BuildMmcPackage();
  return pkg;
}
std::vector<uint8_t>& UsbPkg() {
  static std::vector<uint8_t> pkg = BuildUsbPackage();
  return pkg;
}

void BenchDriverlet(benchmark::State& state, bool usb, uint64_t rw) {
  Deployment d = MakeDeployment(usb ? UsbPkg() : MmcPkg());
  uint64_t blkcnt = static_cast<uint64_t>(state.range(0));
  std::vector<uint8_t> buf(blkcnt * 512, 0x5c);
  uint64_t blkid = 4096;
  for (auto _ : state) {
    ReplayArgs args;
    args.scalars = {{"rw", rw}, {"blkcnt", blkcnt}, {"blkid", blkid}, {"flag", 0}};
    args.buffers["buf"] = BufferView{buf.data(), buf.size()};
    uint64_t t0 = d.tb->clock().now_us();
    Result<ReplayStats> r = d.service->Invoke(d.session, usb ? kUsbEntry : kMmcEntry, args);
    uint64_t dt = d.tb->clock().now_us() - t0;
    if (!r.ok()) {
      state.SkipWithError(StatusName(r.status()));
      return;
    }
    state.SetIterationTime(static_cast<double>(dt) / 1e6);
    blkid += 4096;  // new addresses every iteration: no cache effects
  }
}

void BenchNative(benchmark::State& state, bool usb, uint64_t rw) {
  // The same request submitted through the kernel to the full driver (block
  // layer per-request + per-segment costs, then the driver). This is the
  // apples-to-apples single-request latency of paper Fig. 8: the driverlet is
  // near-native or slightly lower because it "forgoes complex kernel layers",
  // most visibly the per-4KB-page transfer scheduling on large USB writes.
  TestbedOptions opts;
  Rpi3Testbed tb{opts};
  RawBlockDriver* driver = usb ? static_cast<RawBlockDriver*>(&tb.usb_driver())
                               : &tb.mmc_driver();
  uint64_t blkcnt = static_cast<uint64_t>(state.range(0));
  std::vector<uint8_t> buf(blkcnt * 512, 0x5c);
  uint64_t blkid = 4096;
  const LatencyModel& lat = tb.machine().latency();
  for (auto _ : state) {
    uint64_t t0 = tb.clock().now_us();
    tb.clock().Advance(lat.kern_block_layer_us +
                       driver->PerPageSchedulingUs() * ((blkcnt + 7) / 8));
    Status s = rw == kMmcRwRead
                   ? driver->ReadBlocks(blkid, static_cast<uint32_t>(blkcnt), buf.data())
                   : driver->WriteBlocks(blkid, static_cast<uint32_t>(blkcnt), buf.data());
    uint64_t dt = tb.clock().now_us() - t0;
    if (!Ok(s)) {
      state.SkipWithError(StatusName(s));
      return;
    }
    state.SetIterationTime(static_cast<double>(dt) / 1e6);
    blkid += 4096;  // new addresses every iteration: no cache effects
  }
}

void MMC_Driverlet_RD(benchmark::State& s) { BenchDriverlet(s, false, kMmcRwRead); }
void MMC_Driverlet_WR(benchmark::State& s) { BenchDriverlet(s, false, kMmcRwWrite); }
void MMC_Native_RD(benchmark::State& s) { BenchNative(s, false, kMmcRwRead); }
void MMC_Native_WR(benchmark::State& s) { BenchNative(s, false, kMmcRwWrite); }
void USB_Driverlet_RD(benchmark::State& s) { BenchDriverlet(s, true, kMmcRwRead); }
void USB_Driverlet_WR(benchmark::State& s) { BenchDriverlet(s, true, kMmcRwWrite); }
void USB_Native_RD(benchmark::State& s) { BenchNative(s, true, kMmcRwRead); }
void USB_Native_WR(benchmark::State& s) { BenchNative(s, true, kMmcRwWrite); }

void Sizes(benchmark::internal::Benchmark* b) {
  for (int n : {1, 8, 32, 128, 256}) {
    b->Arg(n);
  }
  b->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(4);
}

BENCHMARK(MMC_Driverlet_RD)->Apply(Sizes);
BENCHMARK(MMC_Native_RD)->Apply(Sizes);
BENCHMARK(MMC_Driverlet_WR)->Apply(Sizes);
BENCHMARK(MMC_Native_WR)->Apply(Sizes);
BENCHMARK(USB_Driverlet_RD)->Apply(Sizes);
BENCHMARK(USB_Native_RD)->Apply(Sizes);
BENCHMARK(USB_Driverlet_WR)->Apply(Sizes);
BENCHMARK(USB_Native_WR)->Apply(Sizes);

// One covered invoke per registered class through the full service path,
// with per-class argument synthesis from the shared CoveredArgsFor table.
void BenchClassCovered(benchmark::State& state, const DriverletClassSpec* spec) {
  static std::map<std::string, std::vector<uint8_t>>* pkgs =
      new std::map<std::string, std::vector<uint8_t>>;
  auto it = pkgs->find(spec->name);
  if (it == pkgs->end()) {
    it = pkgs->emplace(spec->name, spec->build_package()).first;
  }
  Deployment d = MakeDeployment(it->second);
  if (d.session == 0) {
    state.SkipWithError("deployment failed");
    return;
  }
  std::vector<uint8_t> buf, aux;
  ReplayArgs args;
  int round = 0;
  for (auto _ : state) {
    if (!CoveredArgsFor(spec->entry, round++, &buf, &aux, &args)) {
      state.SkipWithError("no synthetic load for entry");
      return;
    }
    uint64_t t0 = d.tb->clock().now_us();
    Result<ReplayStats> r = d.service->Invoke(d.session, spec->entry, args);
    uint64_t dt = d.tb->clock().now_us() - t0;
    if (!r.ok()) {
      state.SkipWithError(StatusName(r.status()));
      return;
    }
    state.SetIterationTime(static_cast<double>(dt) / 1e6);
  }
}

}  // namespace

void RegisterClassSweepBenchmarks() {
  for (const DriverletClassSpec& cls : RegisteredDriverletClasses()) {
    benchmark::RegisterBenchmark(("Driverlet_" + std::string(cls.name) + "_Covered").c_str(),
                                 [&cls](benchmark::State& s) { BenchClassCovered(s, &cls); })
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond)
        ->Iterations(4);
  }
}

}  // namespace dlt

// Custom main instead of BENCHMARK_MAIN(): when telemetry is armed
// (DLT_TRACE=1), print the metrics summary after the run — template hit/miss,
// soft resets, per-event-kind replay latencies (docs/observability.md).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  dlt::RegisterClassSweepBenchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dlt::Telemetry& tel = dlt::Telemetry::Get();
  if (tel.enabled()) {
    dlt::MetricsRegistry& m = tel.metrics();
    std::printf("\n-- telemetry metrics (virtual time) --\n");
    std::printf("template hits=%llu misses=%llu soft_resets=%llu\n",
                static_cast<unsigned long long>(m.counter("replay.template_hit").value()),
                static_cast<unsigned long long>(m.counter("replay.template_miss").value()),
                static_cast<unsigned long long>(m.counter("replay.soft_resets").value()));
    std::printf("%s", m.Summary().c_str());
  }
  return 0;
}
