// ReplayFleet: N independent replay shards behind one front end, the repo's
// first real-thread subsystem (docs/replay_fleet.md). Each shard is a complete
// deployment machine — its own Machine + SimClock, SecureWorld, device stack
// and ReplayService with that service's own template store — so shards never
// share mutable state; the only cross-shard sharing is the process-wide
// telemetry sinks, which are thread-safe.
//
// Dispatch model:
//   - a fixed pool of T worker threads; shard s is *homed* on worker s % T;
//   - per-shard bounded FIFO run queues (Submit returns kBusy when the
//     session's home-shard queue is full — explicit backpressure, no blocking);
//     each queued request executes as one ReplayService::Invoke;
//   - sessions are pinned to a home shard at OpenSession (least-loaded, or
//     explicit via OpenSessionOn), so a session's invokes always execute
//     against the same Machine and media — determinism is per-shard, and
//     pinning makes it per-session;
//   - idle workers *steal*: they scan other shards and, under the victim
//     shard's execution lock, pop work from the TAIL of its queue — skipping
//     any item with an earlier queued request from the same session, so
//     per-session FIFO order survives stealing.
//
// The execution invariant that makes this safe with single-threaded shard
// internals: popping a shard's queue requires holding that shard's exec_mu,
// and the popped invoke runs to completion under the same continuous lock
// hold. At most one thread ever touches a shard's Machine, and per-session
// order is the submission order.
#ifndef SRC_TEE_REPLAY_FLEET_H_
#define SRC_TEE_REPLAY_FLEET_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/tee/replay_service.h"
#include "src/workload/rpi3_testbed.h"

namespace dlt {

// Fleet-wide session handle: (shard index << 32) | shard-local SessionId.
using FleetSessionId = uint64_t;

inline constexpr size_t FleetShardOf(FleetSessionId id) {
  return static_cast<size_t>(id >> 32);
}
inline constexpr SessionId FleetLocalSession(FleetSessionId id) {
  return id & 0xffffffffu;
}

struct ReplayFleetConfig {
  size_t shards = 4;
  // Worker threads; 0 means one per shard. Fewer threads than shards is a
  // valid (and tested) configuration — stealing keeps all shards draining.
  size_t threads = 0;
  size_t queue_depth = 64;   // per-shard bounded run queue, in requests
  bool stealing = true;      // idle workers steal from busy shards' tails
  size_t batch_limit = 8;    // max requests one worker drains per visit
  // Wall-clock floor per queued invoke, microseconds. The simulator retires
  // device waits in zero host time; a nonzero floor re-introduces the real
  // per-invoke device/world-switch latency by sleeping out the remainder
  // (shard execution lock held — the shard's "device" is busy, exactly as on
  // hardware), so other shards overlap the wait. 0 = run at host speed.
  uint64_t invoke_floor_us = 0;
  ReplayServiceConfig service;  // applied to every shard's service
};

// Per-shard dispatch accounting (monotonic over the fleet's lifetime, except
// the two instantaneous levels), counted in requests.
struct ShardStats {
  uint64_t submitted = 0;
  uint64_t executed = 0;      // requests completed on this shard (home + stolen)
  uint64_t stolen = 0;        // of executed, how many a non-home worker ran
  uint64_t busy_rejects = 0;  // Submit attempts bounced off a full queue
  size_t queue_depth = 0;     // instantaneous, in queued requests
  size_t open_sessions = 0;   // instantaneous
};

struct FleetStats {
  uint64_t submitted = 0;
  uint64_t executed = 0;
  uint64_t stolen = 0;
  uint64_t busy_rejects = 0;
  std::vector<ShardStats> shards;
};

class ReplayFleet {
 public:
  ReplayFleet(std::string signing_key, ReplayFleetConfig cfg = {});
  ~ReplayFleet();

  ReplayFleet(const ReplayFleet&) = delete;
  ReplayFleet& operator=(const ReplayFleet&) = delete;

  // Verifies the sealed package once, then registers the parsed package with
  // every shard's service under that shard's exec_mu (each shard's store takes
  // its own copy of the templates). Must precede OpenSession for that
  // driverlet.
  Result<std::string> RegisterDriverlet(const uint8_t* data, size_t len);

  // ---- Worker pool lifecycle ----
  // Start launches the worker threads; before Start (or after Stop), Submit
  // still queues and ProcessQueuedInline executes on the caller's thread —
  // useful for single-threaded deterministic tests.
  void Start();
  // Joins the pool. Requests still queued complete as kAborted (their
  // completions stay collectable), so no submitter is left waiting forever.
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // ---- Sessions ----
  // Pins the session to the shard with the fewest open sessions.
  Result<FleetSessionId> OpenSession(std::string_view driverlet);
  // Pins the session to an explicit shard (benches use this to skew load).
  Result<FleetSessionId> OpenSessionOn(size_t shard, std::string_view driverlet);
  Status CloseSession(FleetSessionId id);

  // ---- Invocation ----
  // Enqueues onto the session's home shard; kBusy when that queue is full.
  // Buffer views inside |args| are borrowed until the completion is taken.
  Result<uint64_t> Submit(FleetSessionId id, std::string entry, ReplayArgs args);
  // Non-blocking completion pickup; kNotFound while still queued/running.
  Result<ReplayStats> TakeCompletion(uint64_t request_id);
  // Blocks until the request completes (requires a running pool or a
  // concurrent ProcessQueuedInline caller), then takes the completion.
  Result<ReplayStats> WaitCompletion(uint64_t request_id);
  // Drains up to |max_requests| queued invokes on the caller's thread (home
  // order, no stealing). Returns how many ran. Intended for stopped-pool use.
  size_t ProcessQueuedInline(size_t max_requests = SIZE_MAX);

  // ---- Introspection ----
  FleetStats stats() const;
  // Wall-clock queue wait (submit → execution start), microseconds; one
  // sample per request.
  const Histogram& queue_wait_us() const { return queue_wait_us_; }
  size_t shard_count() const { return shards_.size(); }
  size_t thread_count() const { return threads_target_; }
  ReplayService& shard_service(size_t i) { return *shards_[i]->service; }
  Rpi3Testbed& shard_testbed(size_t i) { return *shards_[i]->tb; }

 private:
  struct Pending {
    uint64_t id = 0;             // fleet-wide request id
    SessionId session = 0;       // shard-local session
    RingCmd cmd;                 // buffer views borrowed
    std::chrono::steady_clock::time_point submitted;
  };

  struct Shard {
    size_t index = 0;
    std::unique_ptr<Rpi3Testbed> tb;
    std::unique_ptr<ReplayService> service;

    // Execution lock: held across every service call and for the full
    // duration of each popped invoke. queue_mu nests inside exec-holders but
    // is also taken alone by submitters.
    std::mutex exec_mu;
    std::mutex queue_mu;
    std::deque<Pending> queue;

    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> executed{0};
    std::atomic<uint64_t> stolen{0};
    std::atomic<uint64_t> busy_rejects{0};
    std::atomic<size_t> open_sessions{0};

    // Telemetry handles resolved once at fleet construction when tracing is
    // armed (registrations are permanent); null when telemetry is off.
    Counter* tel_steals = nullptr;
    Counter* tel_executed = nullptr;
    Gauge* tel_queue_depth = nullptr;
    Gauge* tel_sessions = nullptr;
  };

  void WorkerLoop(size_t worker);
  // Drains up to batch_limit invokes from |s| under try-locked exec_mu.
  // Returns invokes run; 0 when the lock was busy or the queue empty.
  size_t RunShard(Shard& s, bool as_thief, size_t limit);
  // Pops the next runnable item for |s| (front for home, tail-respecting-
  // session-order for thieves). Caller holds exec_mu. False when none.
  bool PopWork(Shard& s, bool as_thief, Pending* out);
  // Runs one request against |s| and files the completion. exec_mu held.
  void Execute(Shard& s, Pending p, bool as_thief);
  void CompleteAs(uint64_t request_id, Result<ReplayStats> r);

  std::string signing_key_;
  ReplayFleetConfig cfg_;
  size_t threads_target_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};

  // Wake signal for idle workers (new work or shutdown).
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;

  // Completion table shared by all shards, keyed by fleet request id.
  mutable std::mutex comp_mu_;
  std::condition_variable comp_cv_;
  std::map<uint64_t, Result<ReplayStats>> completions_;

  std::atomic<uint64_t> next_request_{1};
  // Total queued across all shards — lets idle workers' wake predicate stay a
  // single relaxed load instead of walking every queue lock.
  std::atomic<size_t> queued_total_{0};
  Histogram queue_wait_us_;  // wall-clock

  Counter* tel_fleet_steals_ = nullptr;
  Gauge* tel_fleet_queue_depth_ = nullptr;
  Gauge* tel_fleet_sessions_ = nullptr;
};

}  // namespace dlt

#endif  // SRC_TEE_REPLAY_FLEET_H_
