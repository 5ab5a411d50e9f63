#include "selftest.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "quantiles.h"
#include "workloads.h"

namespace perfbench {

namespace {

int g_failures = 0;

void Expect(bool cond, const std::string& what) {
  std::printf("%s %s\n", cond ? "PASS" : "FAIL", what.c_str());
  if (!cond) {
    ++g_failures;
  }
}

void QuantileCases() {
  Quantiles one = Summarize({7.5});
  Expect(one.n == 1 && one.min == 7.5 && one.p50 == 7.5 && one.p99 == 7.5 && one.max == 7.5 &&
             one.beyond_p99 == 0,
         "quantiles: one sample is every quantile");

  Quantiles ties = Summarize({3, 3, 3, 3, 3});
  Expect(ties.p50 == 3 && ties.p99 == 3 && ties.min == 3 && ties.max == 3,
         "quantiles: ties collapse to the tied value");

  Quantiles two = Summarize({2, 1});
  Expect(two.p50 == 1 && two.p99 == 2, "quantiles: two samples, nearest rank");

  // 1000 distinct samples in scrambled order: p99 is rank 990, leaving exactly
  // ten samples beyond it.
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.begin() + 500);
  std::rotate(v.begin(), v.begin() + 333, v.end());
  Quantiles k = Summarize(v);
  Expect(k.n == 1000 && k.p50 == 500 && k.p99 == 990 && k.beyond_p99 == 10 && k.max == 1000,
         "quantiles: p99 of 1000 samples has exactly 10 beyond it");

  std::vector<double> h(100);
  std::iota(h.begin(), h.end(), 1.0);
  Quantiles hundred = Summarize(h);
  Expect(hundred.p99 == 99 && hundred.beyond_p99 == 1,
         "quantiles: p99 of 100 samples reports its single sample beyond");

  Quantiles none = Summarize({});
  Expect(none.n == 0, "quantiles: no samples");
}

void GeneratorCases() {
  for (const std::string& name : WorkloadNames()) {
    uint64_t a = MakeWorkload(name, 7)->InputDigest(32);
    uint64_t b = MakeWorkload(name, 7)->InputDigest(32);
    uint64_t c = MakeWorkload(name, 8)->InputDigest(32);
    Expect(a == b && a != c, name + ": inputs are a function of the seed");
  }
}

// Runs |groups| prefix groups on a fresh deployment.
Phase ShortRun(const std::string& name, bool traced, size_t groups, SpanLog* log) {
  std::unique_ptr<Workload> w = MakeWorkload(name, 42);
  w->set_span_log(log);
  SetupTimes t;
  Phase ph;
  ph.traced = traced;
  if (!w->Setup(traced, &t)) {
    ph.failed = 1;
    return ph;
  }
  for (size_t g = 0; g < groups; ++g) {
    w->RunGroup(&ph, true);
    ++ph.groups;
  }
  return ph;
}

void TimedWorldParity() {
  struct Case {
    const char* name;
    size_t groups;
  };
  const Case kCases[] = {{"sqlite_mmc", 12}, {"camera_capture", 3}, {"secure_ops_ring", 24}};
  for (const Case& c : kCases) {
    SpanLog log(1 << 16);
    Phase plain = ShortRun(c.name, false, c.groups, nullptr);
    Phase traced = ShortRun(c.name, true, c.groups, &log);
    std::string n = c.name;
    Expect(plain.failed == 0 && traced.failed == 0 && plain.ops > 0,
           n + ": every output matches its reference");
    Expect(plain.model_us == traced.model_us && plain.model_elapsed_us == traced.model_elapsed_us,
           n + ": timed world leaves model time unchanged");
    Expect(plain.digest == traced.digest, n + ": timed world leaves read-back bytes unchanged");
    Expect(traced.layers.closes && traced.layers.op_ns > 0 && !log.spans().empty(),
           n + ": traced breakdown closes and spans were kept");
  }
}

}  // namespace

int RunSelfTest() {
  QuantileCases();
  GeneratorCases();
  TimedWorldParity();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "selftest passed" : "selftest FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
