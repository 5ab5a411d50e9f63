// The six storage benchmark scripts of paper Table 9 (drawn from the SQLite
// test suites to diversify read/write ratios), implemented against MiniDb.
// Scripts run on any BlockDevice — the driverlet path (ReplayBlockDevice), the
// native write-back page cache, or native-sync — and report IOPS/QPS plus the
// measured read:write mix.
#ifndef SRC_WORKLOAD_SQLITE_SCRIPTS_H_
#define SRC_WORKLOAD_SQLITE_SCRIPTS_H_

#include <string>
#include <vector>

#include "src/soc/sim_clock.h"
#include "src/workload/minidb.h"

namespace dlt {

// Decorator counting block-level reads/writes on any BlockDevice.
class CountingBlockDevice : public BlockDevice {
 public:
  explicit CountingBlockDevice(BlockDevice* inner) : inner_(inner) {}

  Status Read(uint64_t lba, uint32_t count, uint8_t* out) override {
    ++reads_;
    return inner_->Read(lba, count, out);
  }
  Status Write(uint64_t lba, uint32_t count, const uint8_t* data) override {
    ++writes_;
    return inner_->Write(lba, count, data);
  }
  Status Flush() override { return inner_->Flush(); }
  uint64_t io_ops() const override { return reads_ + writes_; }

  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }

 private:
  BlockDevice* inner_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

inline const std::vector<std::string>& SqliteScriptNames() {
  static const std::vector<std::string> kNames = {"select3",  "delete",  "indexedby",
                                                  "io",       "selectG", "insert3"};
  return kNames;
}

struct ScriptResult {
  std::string name;
  uint64_t queries = 0;
  uint64_t io_requests = 0;  // block-device requests the script issued
  uint64_t elapsed_us = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;

  double iops() const {
    return elapsed_us == 0 ? 0.0 : static_cast<double>(io_requests) * 1e6 /
                                       static_cast<double>(elapsed_us);
  }
  double qps() const {
    return elapsed_us == 0 ? 0.0 : static_cast<double>(queries) * 1e6 /
                                       static_cast<double>(elapsed_us);
  }
};

// Populates |db| with the working set the scripts expect (idempotent-ish:
// call once per fresh database).
Status PopulateDb(MiniDb* db, size_t rows, uint64_t seed);

// Runs one named script for |queries| query units. |clock| supplies virtual
// time, |counter| the block-level statistics.
Result<ScriptResult> RunSqliteScript(const std::string& name, MiniDb* db,
                                     CountingBlockDevice* counter, SimClock* clock,
                                     size_t queries, uint64_t seed);

}  // namespace dlt

#endif  // SRC_WORKLOAD_SQLITE_SCRIPTS_H_
