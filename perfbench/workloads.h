// The four benchmark workloads and the phase record they fill.
//
// A workload generates its inputs from the seed alone, in *groups* (one MiniDb
// script call, one capture, one ring batch of 8, one fleet epoch), and runs
// each group closed-loop: the next group starts when the previous one
// completed. Every output is checked against an independent reference;
// checking time is excluded from every timing.
//
// Model-clock metrics and the output digest cover a fixed prefix of groups,
// so they repeat exactly for a seed however fast the host is; host-clock
// metrics cover every op of the timed window.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "timed_world.h"

namespace perfbench {

inline constexpr uint64_t kFnvSeed = 1469598103934665603ull;

inline uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// splitmix64: every generated input derives from the --seed argument.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  void Fill(uint8_t* p, size_t n) {
    for (size_t i = 0; i < n; i += 8) {
      uint64_t v = Next();
      for (size_t j = 0; j < 8 && i + j < n; ++j) {
        p[i + j] = static_cast<uint8_t>(v >> (8 * j));
      }
    }
  }

 private:
  uint64_t state_;
};

// One deployment's set-up, split the way the setup.* metrics report it.
struct SetupTimes {
  double record_s = 0;   // record campaigns + seal
  double testbed_s = 0;  // deployment machine(s) + service construction
  double register_s = 0; // package registration + session open
  double warm_s = 0;     // untimed warm-up groups
  double total() const { return record_s + testbed_s + register_s + warm_s; }
};

// Per-layer totals of a traced phase. Host times are nanoseconds of self time;
// the named pieces plus |unattributed_ns| sum to |op_ns| by construction, and
// |closes| records that no op's attributed pieces ever exceeded its total.
struct LayerTotals {
  int64_t op_ns = 0;
  int64_t ring_ns = 0;
  int64_t service_ns = 0;
  int64_t store_ns = 0;
  int64_t integrity_ns = 0;
  int64_t replayer_ns = 0;
  int64_t make_frame_ns = 0;
  int64_t minidb_ns = 0;
  int64_t unattributed_ns = 0;
  SocTotals soc;  // soc.irq host time excludes the dev.vc4 carve-out
  bool closes = true;

  uint64_t world_switches = 0;
  uint64_t switch_model_us = 0;
  uint64_t invokes = 0;
  uint64_t events = 0;
  uint64_t events_measured = 0;
  uint64_t attempts = 0;
  uint64_t resets = 0;
  uint64_t candidates = 0;
  uint64_t select_hits = 0;
  uint64_t select_misses = 0;
  uint64_t compile_hits = 0;
  uint64_t compile_misses = 0;
  uint64_t ring_cmds = 0;

  uint64_t queries = 0;
  uint64_t requests = 0;

  uint64_t fleet_submitted = 0;
  uint64_t fleet_executed = 0;
  uint64_t fleet_stolen = 0;
  uint64_t fleet_busy = 0;
  double shard_imbalance = 0;
  int64_t submit_ns = 0;
  uint64_t submits = 0;
};

// One measured phase of a run.
struct Phase {
  bool traced = false;
  std::vector<double> host_us;   // every op of the window
  std::vector<double> model_us;  // ops of the prefix groups
  uint64_t model_elapsed_us = 0; // model time the prefix groups spanned
  uint64_t prefix_ops = 0;
  uint64_t groups = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  int64_t wall_ns = 0;           // timed intervals, checking excluded
  // |ops| and |wall_ns| after each group, for per-slice host metrics.
  std::vector<uint64_t> ops_at_group;
  std::vector<int64_t> wall_at_group;
  uint64_t digest = kFnvSeed;    // outputs of the prefix groups
  LayerTotals layers;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds a fresh deployment: record + seal, testbed, registration, session
  // open and warm-up. |traced| hands the service a TimedSecureWorld (armed
  // only while RunGroup records a traced phase). False on any failure.
  virtual bool Setup(bool traced, SetupTimes* t) = 0;
  // Generates and runs the next group, appending its ops to |ph|.
  // |in_prefix| groups also feed the model metrics and the digest.
  virtual void RunGroup(Phase* ph, bool in_prefix) = 0;
  // Groups whose model time and outputs are compared across runs.
  virtual size_t prefix_groups() const = 0;
  // Digest of the inputs the generator makes for the first |groups| groups,
  // without running anything.
  virtual uint64_t InputDigest(size_t groups) const = 0;
  // Whether the model-clock samples repeat exactly for a seed. The fleet's
  // do not: its shards interleave sessions in host-timing order, which moves
  // sub-microsecond charge remainders between requests.
  virtual bool model_exact() const { return true; }
  // Arms span recording for a traced phase.
  void set_span_log(SpanLog* log) { spans_ = log; }

 protected:
  SpanLog* spans_ = nullptr;
};

const std::vector<std::string>& WorkloadNames();
// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
