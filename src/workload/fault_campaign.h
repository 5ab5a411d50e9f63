// The seeded fault-matrix campaign: sweeps fault planes × driverlets × seeds,
// each cell a fresh deployment machine running a fixed op sequence under a
// preset FaultPlan, and reports per-cell recovery rates. Every quantity is a
// deterministic function of the configuration — two runs with the same seeds
// produce byte-identical JSON (docs/fault_injection.md describes the format).
// Shared by bench/fault_matrix and `driverletc faultsweep`.
#ifndef SRC_WORKLOAD_FAULT_CAMPAIGN_H_
#define SRC_WORKLOAD_FAULT_CAMPAIGN_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/fault/fault_plan.h"

namespace dlt {

struct FaultMatrixConfig {
  std::vector<uint64_t> seeds{1, 2, 3, 4};
  int ops_per_cell = 6;  // one op = a verified request pair/capture per class
  // Which driverlets to sweep. Empty (the default) means every registered
  // class — RunFaultMatrix resolves it against RegisteredDriverletClasses()
  // (src/workload/deploy_util.h), so new classes join the sweep automatically.
  std::vector<std::string> driverlets;
  // Recovery ladder configuration for every cell's service.
  uint64_t retry_backoff_us = 100;
  uint64_t quarantine_threshold = 3;
};

struct FaultMatrixCell {
  FaultPlane plane = FaultPlane::kMmio;
  std::string driverlet;
  uint64_t seed = 0;
  int ops = 0;
  int recovered = 0;       // op finished with correct data/status
  int retried = 0;         // recovered ops that needed divergence retries
  int failed = 0;          // ops - recovered
  uint64_t data_errors = 0;  // ok status but wrong bytes (silent corruption)
  uint64_t faults_injected = 0;
  uint64_t resets = 0;       // replayer soft resets over the cell
  uint64_t attempts = 0;     // execution attempts incl. retries
  uint64_t quarantines = 0;  // sessions quarantined (and reopened) mid-cell
  uint64_t sim_end_us = 0;   // virtual time when the cell finished
};

// Per (plane, driverlet) aggregation across seeds.
struct FaultMatrixSummary {
  FaultPlane plane = FaultPlane::kMmio;
  std::string driverlet;
  int ops = 0;
  int recovered = 0;
  uint64_t faults_injected = 0;
  uint64_t quarantines = 0;
  double recovery_rate = 0.0;  // recovered / ops
};

struct FaultMatrix {
  FaultMatrixConfig config;
  std::vector<FaultMatrixCell> cells;      // plane-major, then driverlet, then seed
  std::vector<FaultMatrixSummary> summary;  // the per-cell matrix of the issue
};

FaultMatrix RunFaultMatrix(const FaultMatrixConfig& cfg);

// Stable-ordered JSON (no wall-clock anywhere: same seeds ⇒ identical bytes).
std::string FaultMatrixToJson(const FaultMatrix& m);

// Human-readable summary table.
void PrintFaultMatrix(const FaultMatrix& m, std::FILE* out);

}  // namespace dlt

#endif  // SRC_WORKLOAD_FAULT_CAMPAIGN_H_
