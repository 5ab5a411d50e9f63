// Exact order statistics over raw per-op samples. Every quantile the benchmark
// prints comes from here, never from a bucketed histogram: a bucket ceiling can
// report a p50 above the observed max.
#ifndef PERFBENCH_QUANTILES_H_
#define PERFBENCH_QUANTILES_H_

#include <cstddef>
#include <vector>

namespace perfbench {

struct Quantiles {
  size_t n = 0;
  double min = 0;
  double p50 = 0;
  double p99 = 0;
  double max = 0;
  // Samples strictly after the p99 rank; a usable p99 needs at least ten.
  size_t beyond_p99 = 0;
};

// Sorts a copy of |samples| and returns min/p50/p99/max with the count, each
// quantile the nearest-rank order statistic (1-based rank ceil(q * n)). An
// empty input yields all zeros with n = 0. Aborts the process if the result
// violates min <= p50 <= p99 <= max.
Quantiles Summarize(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_QUANTILES_H_
