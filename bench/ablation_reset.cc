// Ablation: the cost and the necessity of soft-resetting the device between
// interaction templates (DESIGN.md ablation list; paper §5 "resetting device
// states"). Measures per-operation latency under the three reset policies:
// always (the paper's design), unless the recorder proved the previous
// template left the device clean (the default), and never. Exits nonzero if
// the default policy ever diverges — eliding a reset must be invisible.
#include <cstdio>

#include "src/workload/deploy_util.h"

namespace {

struct MixResult {
  int ok = 0;
  double us_per_op = 0;
  uint64_t resets = 0;
  uint64_t elided = 0;
};

// Runs |ops| alternating read/write replays under |policy|.
MixResult RunMix(dlt::Deployment* d, dlt::ResetPolicy policy, int ops) {
  using namespace dlt;
  d->replayer->set_reset_policy(policy);
  d->replayer->set_max_attempts(1);  // expose first-execution divergences
  std::vector<uint8_t> buf(32 * 512, 0xee);
  uint64_t t0 = d->tb->clock().now_us();
  MixResult out;
  for (int i = 0; i < ops; ++i) {
    ReplayArgs args;
    args.scalars = {{"rw", (i % 2) ? kMmcRwWrite : kMmcRwRead},
                    {"blkcnt", 32},
                    {"blkid", static_cast<uint64_t>(i % 64) * 32},
                    {"flag", 0}};
    args.buffers["buf"] = BufferView{buf.data(), buf.size()};
    if (d->replayer->Invoke(kMmcEntry, args).ok()) {
      ++out.ok;
    }
  }
  out.us_per_op = static_cast<double>(d->tb->clock().now_us() - t0) / ops;
  out.resets = d->replayer->total_resets();
  out.elided = d->replayer->total_resets_elided();
  return out;
}

}  // namespace

int main() {
  using namespace dlt;
  std::printf("Ablation: soft reset between interaction templates\n\n");
  std::vector<uint8_t> pkg = BuildMmcPackage();
  if (pkg.empty()) {
    return 1;
  }
  constexpr int kOps = 100;

  struct Policy {
    const char* label;
    ResetPolicy policy;
  };
  const Policy kPolicies[] = {
      {"always (paper design)", ResetPolicy::kAlways},
      {"unless clean (default)", ResetPolicy::kUnlessClean},
      {"never (ablated)", ResetPolicy::kNever},
  };
  MixResult results[3];
  std::printf("%-26s %10s %10s %8s %8s\n", "policy", "success", "us/op", "resets", "elided");
  PrintRule(66);
  for (int i = 0; i < 3; ++i) {
    Deployment d = MakeDeployment(pkg);
    results[i] = RunMix(&d, kPolicies[i].policy, kOps);
    std::printf("%-26s %7d/%d %10.0f %8llu %8llu\n", kPolicies[i].label, results[i].ok, kOps,
                results[i].us_per_op, static_cast<unsigned long long>(results[i].resets),
                static_cast<unsigned long long>(results[i].elided));
  }
  PrintRule(66);
  const MixResult& always = results[0];
  const MixResult& clean = results[1];
  const MixResult& never = results[2];
  std::printf("\nreset cost per op: %.0f us (%.1f%% of operation latency under 'always');\n"
              "'unless clean' saves %.0f us of it per op\n",
              always.us_per_op - never.us_per_op,
              (always.us_per_op - never.us_per_op) * 100.0 / always.us_per_op,
              always.us_per_op - clean.us_per_op);
  std::printf(
      "'unless clean' skips the reset only after a first-attempt success of a template\n"
      "the recorder proved leaves the controller in its post-reset state.\n");
  if (clean.ok != kOps) {
    std::fprintf(stderr, "FAIL: the 'unless clean' policy diverged on %d of %d ops\n",
                 kOps - clean.ok, kOps);
    return 1;
  }

  // Retry-budget sweep: how many attempts a persistent fault consumes.
  std::printf("\nRetry-budget sweep under a persistent fault:\n");
  for (int attempts : {1, 2, 3, 5}) {
    Deployment d = MakeDeployment(pkg);
    d.tb->sd_medium().set_present(false);
    d.replayer->set_max_attempts(attempts);
    std::vector<uint8_t> buf(512, 0);
    ReplayArgs args;
    args.scalars = {{"rw", kMmcRwRead}, {"blkcnt", 1}, {"blkid", 0}, {"flag", 0}};
    args.buffers["buf"] = BufferView{buf.data(), buf.size()};
    uint64_t t0 = d.tb->clock().now_us();
    Result<ReplayStats> r = d.replayer->Invoke(kMmcEntry, args);
    double ms = static_cast<double>(d.tb->clock().now_us() - t0) / 1000.0;
    std::printf("  max_attempts=%d: %-8s resets=%llu give-up latency=%.1f ms\n", attempts,
                StatusName(r.status()), static_cast<unsigned long long>(d.replayer->total_resets()),
                ms);
  }
  return 0;
}
