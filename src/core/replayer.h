// The in-TEE replayer (paper §5): selects an interaction template by
// constraint matching through a TemplateStore, instantiates it, and
// executes its events with a transactional, single-threaded executor. The
// device is soft-reset before each template unless the previous invoke proved
// it still clean (ResetPolicy). Device state divergence triggers soft reset +
// bounded re-execution; persistent divergence aborts with a rewound event
// report.
//
// A replayer serves exactly one driverlet. It either owns a private store
// (standalone use: one trustlet, which takes its driverlet from the first
// package it loads) or selects from its ReplayService's store, scoped to the
// driverlet the service created it for. Either way it refuses a package for
// any other driverlet, and reloading its own replaces only its templates.
#ifndef SRC_CORE_REPLAYER_H_
#define SRC_CORE_REPLAYER_H_

#include <optional>
#include <string>
#include <vector>

#include "src/core/integrity.h"
#include "src/core/interaction_template.h"
#include "src/core/package.h"
#include "src/core/replay_args.h"
#include "src/core/replay_context.h"
#include "src/core/template_store.h"

namespace dlt {

// When the replayer soft-resets a template's primary device before the first
// attempt. Divergence retries reset under every policy.
enum class ResetPolicy : uint8_t {
  // Before every template: the paper's behaviour (§5).
  kAlways,
  // Skip it when the device is provably still in its post-reset state: the
  // previous invoke on this replayer succeeded on its first attempt with a
  // template flagged leaves_clean_state on the same primary device.
  kUnlessClean,
  // Ablation: never before a first attempt; residue state may diverge.
  kNever,
};

class Replayer {
 public:
  // Standalone replayer owning a private TemplateStore. |signing_key| is the
  // developer key packages must verify against.
  Replayer(ReplayContext* ctx, std::string signing_key);

  // Service-wired replayer over its service's |store| (not owned, must
  // outlive this), serving |driverlet|.
  Replayer(ReplayContext* ctx, std::string signing_key, TemplateStore* store,
           std::string driverlet);

  // Verifies the signature, decompresses and parses the package in-TEE, then
  // adds it to the store. kInvalidArg, changing nothing, for a package of
  // another driverlet than the one this replayer serves (a standalone
  // replayer serves the driverlet of its first loaded package).
  Status LoadPackage(const uint8_t* data, size_t len);
  Status LoadPackage(DriverletPackage pkg);  // opened; its templates move into the store

  // Invokes the driverlet entry: selects the template whose initial constraints
  // are satisfied by |args|, then executes it. kNoTemplate when the input is
  // uncovered. kAborted after max_attempts divergences.
  Result<ReplayStats> Invoke(std::string_view entry, const ReplayArgs& args);

  // The served driverlet's templates, in package order.
  std::vector<const InteractionTemplate*> templates() const;
  // The served driverlet; empty for a standalone replayer before its first
  // successful LoadPackage.
  const std::string& driverlet_name() const { return driverlet_; }
  const TemplateStore& store() const { return *store_; }
  const DivergenceReport& last_report() const { return report_; }
  // Integrity measurement of the last Invoke's final attempt (valid after the
  // executor actually ran — a selection miss leaves it invalid). Failed invokes
  // return a bare Status, so the measurement of a diverged/aborted run is only
  // reachable here; the service extends its session PCR with it.
  const MeasurementRecord& last_measurement() const { return measurement_; }

  int max_attempts() const { return max_attempts_; }
  void set_max_attempts(int n) { max_attempts_ = n; }

  // Virtual-time backoff before each divergence retry, doubling per attempt
  // (retry n waits backoff << (n-2) microseconds). 0 — the default — retries
  // immediately after the soft reset, the paper's behaviour; the ReplayService
  // raises it so a flapping device is not hammered at full rate.
  void set_retry_backoff_us(uint64_t us) { retry_backoff_us_ = us; }

  void set_reset_policy(ResetPolicy p) { reset_policy_ = p; }

  // Cumulative statistics. total_resets counts resets actually performed;
  // total_resets_elided counts first attempts that ran without one.
  uint64_t total_events_executed() const { return total_events_; }
  uint64_t total_resets() const { return total_resets_; }
  uint64_t total_resets_elided() const { return total_resets_elided_; }

 private:
  ReplayContext* ctx_;
  std::string signing_key_;
  TemplateStore owned_store_;
  TemplateStore* store_;  // &owned_store_ unless wired to a service's store
  std::string driverlet_;
  DivergenceReport report_;
  MeasurementRecord measurement_;
  int max_attempts_ = 3;
  uint64_t retry_backoff_us_ = 0;
  ResetPolicy reset_policy_ = ResetPolicy::kUnlessClean;
  // The device the previous invoke provably left in its post-reset state;
  // cleared by every invoke that does not prove it again.
  std::optional<uint16_t> clean_device_;
  uint64_t total_events_ = 0;
  uint64_t total_resets_ = 0;
  uint64_t total_resets_elided_ = 0;
};

}  // namespace dlt

#endif  // SRC_CORE_REPLAYER_H_
