#include "quantiles.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

// 1-based nearest rank ceil(q * n), computed in integers so that q * n landing
// exactly on a whole number (p99 of 1000 samples is rank 990) is not pushed
// one rank up by floating-point error.
size_t NearestRank(size_t n, double q) {
  const size_t kScale = 1'000'000;
  size_t q_scaled = static_cast<size_t>(std::llround(q * kScale));
  size_t rank = (q_scaled * n + kScale - 1) / kScale;
  return std::clamp<size_t>(rank, 1, n);
}

double OrderStat(const std::vector<double>& sorted, double q) {
  return sorted[NearestRank(sorted.size(), q) - 1];
}

}  // namespace

Quantiles Summarize(std::vector<double> samples) {
  Quantiles out;
  if (samples.empty()) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  out.n = samples.size();
  out.min = samples.front();
  out.max = samples.back();
  out.p50 = OrderStat(samples, 0.50);
  out.p99 = OrderStat(samples, 0.99);
  out.beyond_p99 = out.n - NearestRank(out.n, 0.99);
  if (!(out.min <= out.p50 && out.p50 <= out.p99 && out.p99 <= out.max)) {
    std::fprintf(stderr, "quantile order violated: min %g p50 %g p99 %g max %g\n", out.min,
                 out.p50, out.p99, out.max);
    std::abort();
  }
  return out;
}

}  // namespace perfbench
