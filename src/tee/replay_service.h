// ReplayService: the session-oriented secure IO service hosted by one
// SecureWorld. Clients open *sessions* against registered driverlets and issue
// commands through them, GlobalPlatform-style (OpenSession → Invoke →
// CloseSession), so multiple normal-world clients — an MMC block device, USB
// storage, a camera pipeline — coexist over a single TEE instance.
//
// The service owns one multi-package TemplateStore and one Replayer per
// registered device class; selection scans one (driverlet, entry) slot, so its
// cost does not grow with the number of other registered packages. Like the
// store, the service is single-threaded: its owner serializes every call.
//
// Admission: a package registers only if its signature verifies and every
// device its templates touch is mapped into the SecureWorld; a session opens
// only against a registered driverlet and while the session table has room.
// Backpressure is explicit: a full session table or invocation ring returns
// kBusy, never blocks.
//
// Transports: a synchronous Invoke, or the session's InvocationRing for
// queued commands (RingPush × N, one RingDoorbell, RingPop × N). The
// simulated single-core TEE executes every command to completion in order, as
// the paper's replayer does.
//
// World-switch cost model: every invocation crosses the SMC boundary twice
// (doorbell in, completion reap out), charged via SecureWorld::WorldSwitch.
// The charge is per *batch*, not per command — a ring doorbell amortizes the
// two switches over every staged command, while Invoke is a batch of 1. Both
// funnel into one RunBatch, so stats, quarantine and fault-ladder logic
// exist exactly once.
#ifndef SRC_TEE_REPLAY_SERVICE_H_
#define SRC_TEE_REPLAY_SERVICE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/core/integrity.h"
#include "src/core/replayer.h"
#include "src/core/template_store.h"
#include "src/tee/attestation.h"
#include "src/tee/invocation_ring.h"
#include "src/tee/secure_world.h"

namespace dlt {

using SessionId = uint64_t;

struct ReplayServiceConfig {
  size_t max_sessions = 16;
  size_t ring_depth = 32;  // per-session invocation ring slots
  // Recovery policy ladder (docs/fault_injection.md). Each registered
  // replayer already retries with soft reset; these knobs add the service
  // rungs above it:
  //   - retry_backoff_us: virtual-time backoff applied to every registered
  //     replayer's divergence retries (0 = retry immediately);
  //   - quarantine_threshold: after this many *consecutive* device-health
  //     failures (aborted / timeout / diverged / io-error) a session is
  //     quarantined — further Invoke/RingPush fail fast with kQuarantined and
  //     only CloseSession frees the slot. 1 fences a session on its first
  //     device-health failure; 0 disables quarantine. The rule reads invoke
  //     statuses only. The integrity measurement feeds the session PCR and
  //     quotes, never quarantine: every device-health failure measures short
  //     of golden, so it would add nothing.
  uint64_t retry_backoff_us = 0;
  uint64_t quarantine_threshold = 4;
};

// Per-session accounting, aggregated from each invoke's ReplayStats.
struct SessionStats {
  std::string driverlet;
  uint64_t invokes = 0;           // commands executed (Invoke + ring doorbells)
  uint64_t failures = 0;          // invokes that returned an error
  uint64_t events_executed = 0;
  uint64_t resets = 0;            // soft resets performed (retries included)
  uint64_t resets_elided = 0;     // first attempts run without a reset
  uint64_t attempts = 0;          // execution attempts incl. divergence retries
  uint64_t submitted = 0;         // commands accepted by RingPush
  std::map<std::string, uint64_t> per_template;  // completed, by template name
  uint64_t opened_us = 0;
  uint64_t last_invoke_us = 0;
  // Quarantine ladder state: device-health failures since the last success,
  // and whether the session has been quarantined (terminal until closed).
  uint64_t consecutive_device_failures = 0;
  bool quarantined = false;
  // Runtime integrity (integrity.h), for attestation: hex measurement of the
  // most recent invoke's final attempt (which template ran, how many of its
  // top-level events completed), and how many invokes reached the executor
  // and failed, so measured short of golden.
  std::string last_measurement;
  uint64_t measurement_mismatches = 0;
};

class ReplayService {
 public:
  ReplayService(SecureWorld* tee, std::string signing_key, ReplayServiceConfig cfg = {});

  // Verifies + admission-checks + loads a driverlet package into the store,
  // creating the device class's replayer on first registration.
  // Returns the driverlet name. kCorrupt on signature/framing mismatch,
  // kPermissionDenied when a referenced device is not mapped into the TEE.
  Result<std::string> RegisterDriverlet(const uint8_t* data, size_t len);
  // An opened package; its templates move into the store.
  Result<std::string> RegisterDriverlet(DriverletPackage pkg);

  // ---- Session lifecycle ----
  // kNotFound for an unregistered driverlet; kBusy when the table is full.
  Result<SessionId> OpenSession(std::string_view driverlet);
  Status CloseSession(SessionId id);

  // Synchronous invoke on an open session: a batch of 1 (two world switches).
  // The entry must belong to the session's driverlet (scoped selection).
  Result<ReplayStats> Invoke(SessionId id, std::string_view entry, const ReplayArgs& args);

  // ---- Per-session invocation ring (batched submit/reap) ----
  // The session's ring (depth = ReplayServiceConfig::ring_depth), created with
  // the session and read-only here: its counters are for inspection.
  // kNotFound for an unknown session.
  Result<const InvocationRing*> Ring(SessionId id) const;
  // Push one descriptor into the session's ring. Descriptors cost no virtual
  // time — the ring is normal-world shared memory; only the doorbell crosses
  // the SMC boundary. Buffer views inside |args| are borrowed until the
  // completion is reaped. kBusy when the ring is full (reap completions to
  // free slots); kQuarantined fails fast like Invoke.
  Result<uint64_t> RingPush(SessionId id, std::string entry, ReplayArgs args);
  // Doorbell: drains every pending descriptor as ONE batch under two world
  // switches; per-command results land in the completion ring. Returns how
  // many commands ran — 0 for an empty ring, which charges no switch.
  Result<size_t> RingDoorbell(SessionId id);
  // Reaps the oldest completion in push order; kNotFound while none pending.
  Result<RingCompletion> RingPop(SessionId id);

  // ---- Introspection ----
  Result<SessionStats> Stats(SessionId id) const;
  // Signed attestation quote over the session's PCR chain, counters and the
  // caller's freshness nonce (attestation.h). kNotFound for unknown sessions.
  Result<AttestationQuote> Attest(SessionId id, std::string nonce) const;
  size_t open_sessions() const { return sessions_.size(); }
  // Sessions quarantined over the service lifetime (closed ones included).
  uint64_t quarantined_sessions() const { return quarantined_total_; }
  size_t registered_driverlets() const { return replayers_.size(); }
  bool IsRegistered(std::string_view driverlet) const;
  // Read-only: packages reach the store only through RegisterDriverlet.
  const TemplateStore& store() const { return store_; }
  // The device class's replayer (reset policy / retry knobs); nullptr when the
  // driverlet is not registered.
  Replayer* replayer(std::string_view driverlet);
  SecureWorld* tee() { return tee_; }

 private:
  struct Session {
    Session(std::string name, size_t ring_depth)
        : driverlet(std::move(name)), ring(ring_depth) {}
    std::string driverlet;
    SessionStats stats;
    // Commands staged here when the session closes die with it, unrun.
    InvocationRing ring;
    // Session PCR: extended with every measured invoke's measurement, so the
    // attestation quote commits to the whole execution history in order.
    Sha256::Digest pcr = IntegritySeed();
  };
  // One command of a batch, resolved to its execution inputs/output.
  struct BatchItem {
    std::string_view entry;
    const ReplayArgs* args = nullptr;
    Result<ReplayStats>* out = nullptr;
  };

  // THE execution path: charges the two world switches around a non-empty
  // batch and runs each command through DoInvokeOne. Invoke and RingDoorbell
  // both funnel here.
  void RunBatch(Session& s, BatchItem* items, size_t n);
  // Per-command core: quarantine ladder, replayer invoke, per-session stats.
  Result<ReplayStats> DoInvokeOne(Session& s, std::string_view entry, const ReplayArgs& args);

  SecureWorld* tee_;
  std::string signing_key_;
  ReplayServiceConfig cfg_;
  TemplateStore store_;  // every replayer below selects from it
  std::map<std::string, std::unique_ptr<Replayer>, std::less<>> replayers_;
  std::map<SessionId, Session> sessions_;
  SessionId next_session_ = 1;
  uint64_t quarantined_total_ = 0;
};

}  // namespace dlt

#endif  // SRC_TEE_REPLAY_SERVICE_H_
