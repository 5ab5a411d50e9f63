// ReplayService: the session-oriented secure IO service hosted by one
// SecureWorld. Clients open *sessions* against registered driverlets and issue
// commands through them, GlobalPlatform-style (OpenSession → Invoke →
// CloseSession), so multiple normal-world clients — an MMC block device, USB
// storage, a camera pipeline — coexist over a single TEE instance.
//
// The service owns one shared multi-package TemplateStore and one Replayer per
// registered device class; selection is indexed by (driverlet, entry), so its
// cost does not grow with the number of other registered packages.
//
// Admission: a package registers only if its signature verifies and every
// device its templates touch is mapped into the SecureWorld; a session opens
// only against a registered driverlet and while the session table has room.
// Backpressure is explicit: a full session table or request queue returns
// kBusy, never blocks.
//
// Request queue: Submit enqueues into a bounded FIFO shared by all sessions;
// ProcessQueued drains in submission order (the simulated single-core TEE
// serializes execution, as the paper's replayer does); completions are picked
// up by request id. Buffer views inside queued ReplayArgs are borrowed — the
// caller keeps them alive until the completion is taken.
//
// World-switch cost model: every invocation crosses the SMC boundary twice
// (doorbell in, completion reap out), charged via SecureWorld::WorldSwitch.
// The charge is per *batch*, not per command — the per-session InvocationRing
// lets a client amortize the two switches over a whole vector of commands
// (RingPush × N + one RingDoorbell), while Invoke / Submit are thin wrappers
// over a batch of 1. All three paths funnel into one DoInvokeBatch, so stats,
// quarantine and fault-ladder logic exist exactly once.
#ifndef SRC_TEE_REPLAY_SERVICE_H_
#define SRC_TEE_REPLAY_SERVICE_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

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
  size_t queue_depth = 32;  // bounded FIFO across all sessions
  size_t ring_depth = 32;   // per-session invocation ring slots
  // Recovery policy ladder (docs/fault_injection.md). Each registered
  // replayer already retries with soft reset; these knobs add the service
  // rungs above it:
  //   - retry_backoff_us: virtual-time backoff applied to every registered
  //     replayer's divergence retries (0 = retry immediately);
  //   - quarantine_threshold: after this many *consecutive* device-health
  //     failures (aborted / timeout / diverged / io-error) a session is
  //     quarantined — further Invoke/Submit fail fast with kQuarantined and
  //     only CloseSession frees the slot. 0 disables quarantine.
  uint64_t retry_backoff_us = 0;
  uint64_t quarantine_threshold = 4;
  // Integrity policy (docs/architecture.md "Runtime integrity measurement"):
  // when set, a device-health failure whose runtime measurement diverges from
  // the template's golden hash quarantines the session immediately — rung 0
  // of the recovery ladder, below the consecutive-failure threshold. Off by
  // default: measurement is always recorded, enforcement is opt-in.
  bool enforce_integrity = false;
};

// Per-session accounting, aggregated from each invoke's ReplayStats.
struct SessionStats {
  std::string driverlet;
  uint64_t invokes = 0;           // completed Invoke calls (direct + queued)
  uint64_t failures = 0;          // invokes that returned an error
  uint64_t events_executed = 0;
  uint64_t resets = 0;
  uint64_t attempts = 0;          // execution attempts incl. divergence retries
  uint64_t submitted = 0;         // requests admitted (FIFO Submit + RingPush)
  std::map<std::string, uint64_t> per_template;  // completed, by template name
  uint64_t opened_us = 0;
  uint64_t last_invoke_us = 0;
  // Quarantine ladder state: device-health failures since the last success,
  // and whether the session has been quarantined (terminal until closed).
  uint64_t consecutive_device_failures = 0;
  bool quarantined = false;
  // Runtime integrity (integrity.h): hex measurement of the most recent
  // invoke's final attempt, and how many invokes diverged from their
  // template's golden hash over the session lifetime.
  std::string last_measurement;
  uint64_t measurement_mismatches = 0;
};

class ReplayService {
 public:
  ReplayService(SecureWorld* tee, std::string signing_key, ReplayServiceConfig cfg = {});
  // Fleet-shard constructor: the service drives |store| — typically a
  // TemplateStore::NewShardView() of a population shared across shards —
  // instead of creating a private one. nullptr falls back to a private store.
  ReplayService(SecureWorld* tee, std::string signing_key, ReplayServiceConfig cfg,
                std::unique_ptr<TemplateStore> store);

  // Verifies + admission-checks + loads a driverlet package into the shared
  // store, creating the device class's replayer on first registration.
  // Returns the driverlet name. kCorrupt on signature/framing mismatch,
  // kPermissionDenied when a referenced device is not mapped into the TEE.
  Result<std::string> RegisterDriverlet(const uint8_t* data, size_t len);
  Result<std::string> RegisterDriverlet(const DriverletPackage& pkg);
  // Zero-copy registration of an already-mapped v2 package: admission runs
  // against the seal-time device directory, the store registers header-only
  // templates (event bodies hydrate on first selection), and no template is
  // deep-copied up front. Same replayer wiring as the eager overloads.
  Result<std::string> RegisterDriverlet(std::shared_ptr<const MappedPackage> pkg);
  // Maps + verifies a sealed v2 package file, then registers it zero-copy.
  Result<std::string> RegisterDriverletFile(const std::string& path);

  // ---- Session lifecycle ----
  // kNotFound for an unregistered driverlet; kBusy when the table is full.
  Result<SessionId> OpenSession(std::string_view driverlet);
  Status CloseSession(SessionId id);

  // Synchronous invoke on an open session: a batch of 1 (two world switches).
  // The entry must belong to the session's driverlet (scoped selection).
  Result<ReplayStats> Invoke(SessionId id, std::string_view entry, const ReplayArgs& args);

  // Executes |n| commands as one batch against one session — two world
  // switches total — returning per-command results positionally. This is the
  // transport ReplayFleet uses to dispatch whole ring batches to a shard.
  std::vector<Result<ReplayStats>> InvokeBatch(SessionId id, const RingCmd* cmds, size_t n);

  // ---- Bounded FIFO request queue ----
  // Enqueues a request; kBusy when the queue is full. Returns the request id.
  Result<uint64_t> Submit(SessionId id, std::string entry, ReplayArgs args);
  // Executes up to |max_requests| queued requests in FIFO order *as one
  // batch* (two world switches for the whole drain); requests of sessions
  // closed after submission complete as kNotFound. Returns how many ran.
  size_t ProcessQueued(size_t max_requests = SIZE_MAX);
  // Takes the completion for a processed request. kNotFound while the request
  // is still queued or the id is unknown; each completion is taken once.
  Result<ReplayStats> TakeCompletion(uint64_t request_id);

  // ---- Per-session invocation ring (batched submit/reap) ----
  // The session's ring, created lazily (depth = ReplayServiceConfig::
  // ring_depth). Descriptors pushed here cost no virtual time — the ring is
  // normal-world shared memory; the SMC boundary is crossed only by the
  // doorbell. kNotFound for an unknown session.
  Result<InvocationRing*> Ring(SessionId id);
  // Push one descriptor into the session's ring. kBusy when the ring is full
  // (reap completions to free slots); kQuarantined fails fast like Submit.
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
  size_t queue_backlog() const { return queue_.size(); }
  size_t registered_driverlets() const { return replayers_.size(); }
  bool IsRegistered(std::string_view driverlet) const;
  TemplateStore& store() { return *store_; }
  const TemplateStore& store() const { return *store_; }
  // The device class's replayer (reset policy / retry knobs); nullptr when the
  // driverlet is not registered.
  Replayer* replayer(std::string_view driverlet);
  SecureWorld* tee() { return tee_; }

 private:
  struct Session {
    std::string driverlet;
    SessionStats stats;
    std::unique_ptr<InvocationRing> ring;  // lazily created by Ring()
    // Session PCR: extended with every completed invoke's measurement, so the
    // attestation quote commits to the whole execution history in order.
    IntegrityChain pcr;
  };
  struct Pending {
    uint64_t id = 0;
    SessionId session = 0;
    std::string entry;
    ReplayArgs args;   // buffer views borrowed from the submitter
    uint64_t submit_us = 0;
  };
  // One command of a batch, resolved to its execution inputs/output. A null
  // session means the session closed between submit and drain — the command
  // completes as kNotFound without touching the device.
  struct BatchItem {
    Session* session = nullptr;
    std::string_view entry;
    const ReplayArgs* args = nullptr;
    Result<ReplayStats>* out = nullptr;
  };

  // THE execution path: charges the two world switches around a non-empty
  // batch and runs each command through DoInvokeOne. Invoke, ProcessQueued,
  // InvokeBatch and RingDoorbell all funnel here.
  void DoInvokeBatch(BatchItem* items, size_t n);
  // Per-command core: quarantine ladder, replayer invoke, per-session stats.
  Result<ReplayStats> DoInvokeOne(Session& s, std::string_view entry, const ReplayArgs& args);

  SecureWorld* tee_;
  std::string signing_key_;
  ReplayServiceConfig cfg_;
  std::unique_ptr<TemplateStore> store_;
  std::map<std::string, std::unique_ptr<Replayer>, std::less<>> replayers_;
  std::map<SessionId, Session> sessions_;
  std::deque<Pending> queue_;
  std::map<uint64_t, Result<ReplayStats>> completions_;
  SessionId next_session_ = 1;
  uint64_t next_request_ = 1;
  uint64_t quarantined_total_ = 0;
};

}  // namespace dlt

#endif  // SRC_TEE_REPLAY_SERVICE_H_
