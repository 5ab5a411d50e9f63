// The in-TEE replayer (paper §5): selects an interaction template by
// constraint matching through an indexed TemplateStore, instantiates it, and
// executes its events with a transactional, single-threaded executor. Device
// state divergence triggers soft reset + bounded re-execution; persistent
// divergence aborts with a rewound event report.
//
// A replayer either owns a private store (standalone use: one trustlet, its
// own packages) or attaches to a shared store scoped to one driverlet — the
// ReplayService wires one such replayer per mapped device class over a single
// multi-package store. Loading a package *adds* it to the store; it never
// overwrites previously loaded driverlets.
#ifndef SRC_CORE_REPLAYER_H_
#define SRC_CORE_REPLAYER_H_

#include <string>
#include <vector>

#include "src/core/integrity.h"
#include "src/core/interaction_template.h"
#include "src/core/package.h"
#include "src/core/replay_args.h"
#include "src/core/replay_context.h"
#include "src/core/template_store.h"

namespace dlt {

class Replayer {
 public:
  // Standalone replayer owning a private TemplateStore. |signing_key| is the
  // developer key packages must verify against.
  Replayer(ReplayContext* ctx, std::string signing_key);

  // Service-wired replayer over a shared |store| (not owned, must outlive
  // this), restricted to |driverlet|: selection only considers templates that
  // driverlet's packages registered, and LoadPackage refuses other packages.
  Replayer(ReplayContext* ctx, std::string signing_key, TemplateStore* store,
           std::string driverlet);

  // Verifies the signature, decompresses and parses the package in-TEE, then
  // adds it to the store. Reloading a driverlet replaces only that driverlet.
  Status LoadPackage(const uint8_t* data, size_t len);
  Status LoadPackage(const DriverletPackage& pkg);  // pre-parsed (tests)

  // Invokes the driverlet entry: selects the template whose initial constraints
  // are satisfied by |args|, then executes it. kNoTemplate when the input is
  // uncovered. kAborted after max_attempts divergences.
  Result<ReplayStats> Invoke(std::string_view entry, const ReplayArgs& args);

  // Templates visible to this replayer (the scoped driverlet's, or every
  // loaded package's for a standalone replayer), in load order.
  std::vector<const InteractionTemplate*> templates() const;
  const std::string& driverlet_name() const { return driverlet_name_; }
  TemplateStore& store() { return *store_; }
  const TemplateStore& store() const { return *store_; }
  const DivergenceReport& last_report() const { return report_; }
  // Integrity measurement of the last Invoke's final attempt (valid after the
  // executor actually ran — a selection miss leaves it invalid). Failed invokes
  // return a bare Status, so the chain of a diverged/aborted run is only
  // reachable here; the service's quarantine policy reads it.
  const MeasurementRecord& last_measurement() const { return measurement_; }

  int max_attempts() const { return max_attempts_; }
  void set_max_attempts(int n) { max_attempts_ = n; }

  // Virtual-time backoff before each divergence retry, doubling per attempt
  // (retry n waits backoff << (n-2) microseconds). 0 — the default — retries
  // immediately after the soft reset, the paper's behaviour; the ReplayService
  // raises it so a flapping device is not hammered at full rate.
  uint64_t retry_backoff_us() const { return retry_backoff_us_; }
  void set_retry_backoff_us(uint64_t us) { retry_backoff_us_ = us; }

  // Ablation knob: skip the soft reset before first execution of a template
  // (divergence recovery still resets). The paper's design always resets
  // between templates (§5); disabling shows why — residue state diverges.
  void set_reset_between_templates(bool v) { reset_between_templates_ = v; }

  // Cumulative statistics.
  uint64_t total_events_executed() const { return total_events_; }
  uint64_t total_resets() const { return total_resets_; }

 private:
  ReplayContext* ctx_;
  std::string signing_key_;
  TemplateStore owned_store_;
  TemplateStore* store_;   // &owned_store_ unless attached to a shared store
  std::string scope_;      // restrict selection to this driverlet; empty = any
  std::string driverlet_name_;
  DivergenceReport report_;
  MeasurementRecord measurement_;
  int max_attempts_ = 3;
  uint64_t retry_backoff_us_ = 0;
  bool reset_between_templates_ = true;
  uint64_t total_events_ = 0;
  uint64_t total_resets_ = 0;
};

}  // namespace dlt

#endif  // SRC_CORE_REPLAYER_H_
