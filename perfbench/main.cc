// perfbench: the repo benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//   perfbench selftest
//
// --trace 0 prints the end-to-end metrics of one untraced timed window.
// --trace 1 runs the same window untraced, then again on a fresh deployment
// with the TimedSecureWorld armed, prints the per-layer metrics of the traced
// window and checks that both windows produced identical model-clock samples
// and output digests. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is nonzero when any output mismatched its reference or any
// self-check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "quantiles.h"
#include "selftest.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;
constexpr size_t kSpanCap = 20'000;
constexpr size_t kInputDigestGroups = 64;

struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* clock;  // "host", "model" or "" for a count/ratio with no clock
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double PerOp(double total, uint64_t ops) { return ops == 0 ? 0.0 : total / static_cast<double>(ops); }

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

uint64_t ModelFingerprint(const Phase& ph) {
  uint64_t h = Fnv1a(kFnvSeed, &ph.model_elapsed_us, sizeof ph.model_elapsed_us);
  return Fnv1a(h, ph.model_us.data(), ph.model_us.size() * sizeof(double));
}

// Runs groups until |seconds| have passed and the model prefix is complete,
// or until the hard cap, which keeps every run inside its time limit.
Phase RunPhase(Workload& w, double seconds, bool traced) {
  constexpr double kHardCapSeconds = 120;
  Phase ph;
  ph.traced = traced;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t cap = start + static_cast<int64_t>(kHardCapSeconds * 1e9);
  while (true) {
    bool in_prefix = ph.groups < w.prefix_groups();
    int64_t now = NowNs();
    if ((!in_prefix && now >= deadline) || now >= cap) {
      break;
    }
    w.RunGroup(&ph, in_prefix);
    ++ph.groups;
    ph.ops_at_group.push_back(ph.ops);
    ph.wall_at_group.push_back(ph.wall_ns);
  }
  return ph;
}

// Host metrics of consecutive runs of groups holding about equal op counts.
struct HostSlice {
  double ops_per_s = 0;
  Quantiles q;
};

std::vector<HostSlice> HostSlices(const Phase& ph, size_t k) {
  std::vector<HostSlice> out;
  size_t g = 0;
  uint64_t ops0 = 0;
  int64_t wall0 = 0;
  for (size_t i = 1; i <= k; ++i) {
    uint64_t target = ph.ops * i / k;
    while (g < ph.ops_at_group.size() && ph.ops_at_group[g] < target) {
      ++g;
    }
    if (g >= ph.ops_at_group.size()) {
      break;
    }
    uint64_t ops1 = ph.ops_at_group[g];
    int64_t wall1 = ph.wall_at_group[g];
    if (ops1 > ops0 && wall1 > wall0) {
      HostSlice s;
      s.ops_per_s = static_cast<double>(ops1 - ops0) * 1e9 / static_cast<double>(wall1 - wall0);
      s.q = Summarize({ph.host_us.begin() + static_cast<ptrdiff_t>(ops0),
                       ph.host_us.begin() + static_cast<ptrdiff_t>(ops1)});
      out.push_back(s);
    }
    ops0 = ops1;
    wall0 = wall1;
    ++g;
  }
  return out;
}

// Host metrics are medians over equal-op slices of the window (about 1000
// ops or more each, at most 20). On a shared host, other tenants can swing
// host speed by 1.5x or more for seconds at a time; the median slice follows
// the usual speed and ignores short bursts either way. Each slice's
// quantiles are exact order statistics of its raw samples.
struct HostMetrics {
  size_t slices = 0;
  double ops_per_s = 0;
  double p50 = 0;
  double p99 = 0;
};

HostMetrics HostOf(const Phase& ph) {
  std::vector<HostSlice> sl = HostSlices(ph, std::clamp<size_t>(ph.ops / 1000, 1, 20));
  HostMetrics m;
  if (sl.empty()) {
    return m;
  }
  std::vector<double> tp, p50, p99;
  for (const HostSlice& s : sl) {
    tp.push_back(s.ops_per_s);
    p50.push_back(s.q.p50);
    p99.push_back(s.q.p99);
  }
  m.slices = sl.size();
  m.ops_per_s = Median(tp);
  m.p50 = Median(p50);
  m.p99 = Median(p99);
  return m;
}

std::vector<Metric> EndToEnd(const Phase& ph, double setup_s) {
  return {
      {"setup_s", setup_s, "s", "host"},
      {"model_ops_per_s", PerOp(static_cast<double>(ph.prefix_ops) * 1e6, ph.model_elapsed_us),
       "ops/s", "model"},
      {"peak_rss_mb", PeakRssMb(), "MB", "host"},
  };
}

// |ph| is the traced window; |plain| the untraced one, whose model-clock
// samples it must equal.
std::vector<Metric> PerLayer(const Phase& ph, const Phase& plain,
                             const std::vector<SetupTimes>& setups) {
  const LayerTotals& lt = ph.layers;
  const uint64_t ops = ph.ops;
  const SocTotals& soc = lt.soc;
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) {
      v.push_back(t.*field);
    }
    return Median(v);
  };
  HostMetrics host = HostOf(plain);
  double traced_p50 = HostOf(ph).p50;
  Quantiles model = Summarize(plain.model_us);
  uint64_t fleet_attempts = lt.fleet_submitted + lt.fleet_busy;
  return {
      {"host_ops_per_s", host.ops_per_s, "ops/s", "host"},
      {"host_op_us_p50", host.p50, "us", "host"},
      {"host_op_us_p99", host.p99, "us", "host"},
      {"model_op_us_p50", model.p50, "us", "model"},
      {"model_op_us_p99", model.p99, "us", "model"},
      {"error_rate", Ratio(ph.failed + plain.failed, ph.ops + plain.ops), "fraction", ""},
      {"op.host_ns_per_op", PerOp(lt.op_ns, ops), "ns", "host"},
      {"unattributed.host_ns_per_op", PerOp(lt.unattributed_ns, ops), "ns", "host"},
      {"workload.minidb.requests_per_query", Ratio(lt.requests, lt.queries), "count", ""},
      {"workload.block.invokes_per_request", Ratio(lt.invokes, lt.requests), "count", ""},
      {"workload.minidb.self_host_ns_per_query", PerOp(lt.minidb_ns, lt.queries), "ns", "host"},
      {"tee.fleet.steal_ratio", Ratio(lt.fleet_stolen, lt.fleet_executed), "ratio", ""},
      {"tee.fleet.busy_reject_ratio", Ratio(lt.fleet_busy, fleet_attempts), "ratio", ""},
      {"tee.fleet.shard_imbalance", lt.shard_imbalance, "ratio", ""},
      {"tee.fleet.submit_host_ns", PerOp(lt.submit_ns, lt.submits), "ns", "host"},
      {"tee.service.world_switches_per_op", Ratio(lt.world_switches, ops), "count", ""},
      {"tee.service.switch_model_us_per_op", Ratio(lt.switch_model_us, ops), "us", "model"},
      {"tee.service.self_host_ns_per_op", PerOp(lt.service_ns, ops), "ns", "host"},
      {"tee.ring.host_ns_per_cmd", PerOp(lt.ring_ns, lt.ring_cmds), "ns", "host"},
      {"core.store.select_host_ns_per_op", PerOp(lt.store_ns, ops), "ns", "host"},
      {"core.store.candidates_per_select", Ratio(lt.candidates, lt.invokes), "count", ""},
      {"core.store.select_cache_hit_ratio",
       Ratio(lt.select_hits, lt.select_hits + lt.select_misses), "ratio", ""},
      {"core.store.compile_cache_hit_ratio",
       Ratio(lt.compile_hits, lt.compile_hits + lt.compile_misses), "ratio", ""},
      {"core.replayer.self_host_ns_per_op", PerOp(lt.replayer_ns, ops), "ns", "host"},
      {"core.replayer.events_per_op", Ratio(lt.events, ops), "count", ""},
      {"core.replayer.attempts_per_op", Ratio(lt.attempts, ops), "count", ""},
      {"core.integrity.host_ns_per_op", PerOp(lt.integrity_ns, ops), "ns", "host"},
      {"core.integrity.events_per_op", Ratio(lt.events_measured, ops), "count", ""},
      {"soc.reset.count_per_op", Ratio(soc.calls[kReset], ops), "count", ""},
      {"soc.reset.model_us_per_op", Ratio(soc.model_us[kReset], ops), "us", "model"},
      {"soc.reset.host_ns_per_op", PerOp(soc.host_ns[kReset], ops), "ns", "host"},
      {"soc.mmio.accesses_per_op", Ratio(soc.units[kMmio], ops), "count", ""},
      {"soc.mmio.host_ns_per_op", PerOp(soc.host_ns[kMmio], ops), "ns", "host"},
      {"soc.dma.bytes_per_op", Ratio(soc.units[kDma], ops), "B", ""},
      {"soc.dma.host_ns_per_op", PerOp(soc.host_ns[kDma], ops), "ns", "host"},
      {"soc.irq.waits_per_op", Ratio(soc.calls[kIrq], ops), "count", ""},
      {"soc.irq.model_us_per_op", Ratio(soc.model_us[kIrq], ops), "us", "model"},
      {"soc.irq.host_ns_per_op", PerOp(soc.host_ns[kIrq], ops), "ns", "host"},
      {"soc.delay.model_us_per_op", Ratio(soc.model_us[kDelay], ops), "us", "model"},
      {"dev.vc4.make_frame_host_ns_per_op", PerOp(lt.make_frame_ns, ops), "ns", "host"},
      {"setup.record_s", setup_median(&SetupTimes::record_s), "s", "host"},
      {"setup.testbed_s", setup_median(&SetupTimes::testbed_s), "s", "host"},
      {"setup.register_s", setup_median(&SetupTimes::register_s), "s", "host"},
      {"setup.warm_s", setup_median(&SetupTimes::warm_s), "s", "host"},
      {"obs.trace_overhead_frac", host.p50 > 0 ? traced_p50 / host.p50 - 1 : 0, "fraction",
       "host"},
  };
}

void PrintPhase(const char* label, const Phase& ph) {
  Quantiles host = Summarize(ph.host_us);
  Quantiles model = Summarize(ph.model_us);
  std::printf("%s: %llu ops in %llu groups, %llu failed (error_rate %.6f)\n", label,
              static_cast<unsigned long long>(ph.ops), static_cast<unsigned long long>(ph.groups),
              static_cast<unsigned long long>(ph.failed), Ratio(ph.failed, ph.ops));
  std::printf("  host  us/op: n=%zu min=%.3f p50=%.3f p99=%.3f max=%.3f (%zu samples beyond p99)\n",
              host.n, host.min, host.p50, host.p99, host.max, host.beyond_p99);
  std::printf("  model us/op: n=%zu min=%.0f p50=%.0f p99=%.0f max=%.0f (%zu samples beyond p99), "
              "prefix spans %llu model us\n",
              model.n, model.min, model.p50, model.p99, model.max, model.beyond_p99,
              static_cast<unsigned long long>(ph.model_elapsed_us));
  HostMetrics hm = HostOf(ph);
  std::printf("  host medians over %zu slices: %.3f ops/s, p50 %.3f us, p99 %.3f us\n", hm.slices,
              hm.ops_per_s, hm.p50, hm.p99);
  // Drift check: host p50 of each tenth of the window, in time order.
  std::printf("  host p50 by tenth of the window:");
  for (size_t i = 0; i < 10 && ph.host_us.size() >= 10; ++i) {
    size_t a = ph.host_us.size() * i / 10;
    size_t b = ph.host_us.size() * (i + 1) / 10;
    std::printf(" %.1f", Summarize({ph.host_us.begin() + a, ph.host_us.begin() + b}).p50);
  }
  std::printf("\n");
  std::printf("  output digest %016llx, model fingerprint %016llx\n",
              static_cast<unsigned long long>(ph.digest),
              static_cast<unsigned long long>(ModelFingerprint(ph)));
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %18.6f %-8s %s\n", m.name.c_str(), m.value, m.unit,
                m.clock[0] != '\0' ? m.clock : "-");
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]\n"
               "       perfbench selftest\n"
               "workloads:");
  for (const std::string& n : WorkloadNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Run(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "selftest") == 0) {
    return RunSelfTest();
  }
  std::string workload;
  std::string spans_path;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || MakeWorkload(workload, seed) == nullptr || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace);

  // A different seed must change the generated inputs.
  uint64_t in_a = MakeWorkload(workload, seed)->InputDigest(kInputDigestGroups);
  uint64_t in_b = MakeWorkload(workload, seed + 1)->InputDigest(kInputDigestGroups);
  std::printf("input digest %016llx (seed+1: %016llx)\n", static_cast<unsigned long long>(in_a),
              static_cast<unsigned long long>(in_b));
  if (in_a == in_b) {
    std::printf("FAIL: seed %llu and seed+1 generate the same inputs\n",
                static_cast<unsigned long long>(seed));
    correct = false;
  }

  // Set up several times; the last deployment serves the timed window.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Workload> w;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    w = MakeWorkload(workload, seed);
    SetupTimes t;
    if (!w->Setup(false, &t)) {
      std::fprintf(stderr, "perfbench: set-up of %s failed\n", workload.c_str());
      return 1;
    }
    setups.push_back(t);
  }
  std::vector<double> totals;
  for (const SetupTimes& t : setups) {
    totals.push_back(t.total());
  }
  double setup_s = Median(totals);
  std::printf("setup: median of %d is %.6f s; last one: record %.6f + testbed %.6f + "
              "register %.6f + warm %.6f\n",
              kSetupReps, setup_s, setups.back().record_s, setups.back().testbed_s,
              setups.back().register_s, setups.back().warm_s);

  double window = trace == 1 ? seconds / 2 : seconds;
  const size_t prefix = w->prefix_groups();
  Phase plain = RunPhase(*w, window, false);
  w.reset();
  attempted += plain.ops;
  failed += plain.failed;
  bool prefix_ok = plain.groups >= prefix;
  PrintPhase("untraced window", plain);
  std::vector<Metric> e2e = EndToEnd(plain, setup_s);

  std::vector<Metric> out = e2e;
  if (trace == 1) {
    SpanLog log(kSpanCap);
    std::unique_ptr<Workload> tw = MakeWorkload(workload, seed);
    tw->set_span_log(&log);
    SetupTimes t;
    if (!tw->Setup(true, &t)) {
      std::fprintf(stderr, "perfbench: traced set-up of %s failed\n", workload.c_str());
      return 1;
    }
    Phase traced = RunPhase(*tw, window, true);
    bool tw_exact = tw->model_exact();
    tw.reset();
    attempted += traced.ops;
    failed += traced.failed;
    PrintPhase("traced window", traced);
    prefix_ok = prefix_ok && traced.groups >= prefix;
    // Tracing must not change what the program does: identical model-clock
    // samples and read-back bytes over the prefix.
    bool model_same =
        traced.model_us == plain.model_us && traced.model_elapsed_us == plain.model_elapsed_us;
    if (traced.digest != plain.digest || (tw_exact && !model_same)) {
      std::printf("FAIL: traced window diverged from the untraced one\n");
      correct = false;
    }
    if (!traced.layers.closes) {
      std::printf("FAIL: a traced op's layer times exceeded its measured total\n");
      correct = false;
    }
    out = PerLayer(traced, plain, setups);
    if (!spans_path.empty()) {
      if (log.WriteJson(spans_path)) {
        std::printf("wrote %zu spans to %s\n", log.spans().size(), spans_path.c_str());
      } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
      }
    }
  }
  if (!prefix_ok) {
    std::printf("FAIL: the model-clock prefix did not complete within the time cap\n");
    correct = false;
  }
  if (failed != 0) {
    std::printf("FAIL: %llu ops failed or returned wrong output\n",
                static_cast<unsigned long long>(failed));
    correct = false;
  }
  std::printf("end-to-end metrics (untraced window):\n");
  PrintMetrics(e2e);
  if (trace == 1) {
    std::printf("per-layer metrics (traced window):\n");
    PrintMetrics(out);
  }
  if (attempted == 0) {
    correct = false;
  }
  std::fflush(stdout);
  PrintJson(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
