#include "src/tee/replay_fleet.h"

#include <utility>

#include "src/core/package.h"
#include "src/obs/telemetry.h"
#include "src/soc/log.h"

namespace dlt {

ReplayFleet::ReplayFleet(std::string signing_key, ReplayFleetConfig cfg)
    : signing_key_(std::move(signing_key)), cfg_(cfg) {
  if (cfg_.shards == 0) {
    cfg_.shards = 1;
  }
  threads_target_ = cfg_.threads == 0 ? cfg_.shards : cfg_.threads;

  // Shard 0 owns the origin TemplateStore; every other shard's service drives
  // a view of it, so one RegisterDriverlet population publish is visible to
  // all shards.
  auto origin = std::make_unique<TemplateStore>();
  std::vector<std::unique_ptr<TemplateStore>> stores;
  stores.push_back(nullptr);  // placeholder; origin moves in below
  for (size_t i = 1; i < cfg_.shards; ++i) {
    stores.push_back(origin->NewShardView());
  }
  stores[0] = std::move(origin);

  Telemetry& tel = Telemetry::Get();
  if (tel.enabled()) {
    tel_fleet_steals_ = &tel.metrics().counter("fleet.steals");
    tel_fleet_queue_depth_ = &tel.metrics().gauge("fleet.queue_depth");
    tel_fleet_sessions_ = &tel.metrics().gauge("fleet.open_sessions");
  }
  for (size_t i = 0; i < cfg_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    TestbedOptions opts;
    opts.secure_io = true;
    opts.probe_drivers = false;
    shard->tb = std::make_unique<Rpi3Testbed>(opts);
    shard->service = std::make_unique<ReplayService>(&shard->tb->tee(), signing_key_,
                                                     cfg_.service, std::move(stores[i]));
    if (tel.enabled()) {
      std::string p = "fleet.shard" + std::to_string(i);
      shard->tel_steals = &tel.metrics().counter(p + ".steals");
      shard->tel_executed = &tel.metrics().counter(p + ".executed");
      shard->tel_queue_depth = &tel.metrics().gauge(p + ".queue_depth");
      shard->tel_sessions = &tel.metrics().gauge(p + ".open_sessions");
    }
    shards_.push_back(std::move(shard));
  }
}

ReplayFleet::~ReplayFleet() { Stop(); }

Result<std::string> ReplayFleet::RegisterDriverlet(const uint8_t* data, size_t len) {
  // Verify and parse once; each shard's service re-runs admission against its
  // own SecureWorld and installs its own replayer. The store publishes are
  // idempotent per-driverlet replacements through the shared population.
  DLT_ASSIGN_OR_RETURN(DriverletPackage pkg, OpenPackage(data, len, signing_key_));
  std::string name;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> exec(shard->exec_mu);
    DLT_ASSIGN_OR_RETURN(name, shard->service->RegisterDriverlet(pkg));
  }
  return name;
}

Result<std::string> ReplayFleet::RegisterDriverletFile(const std::string& path) {
  // Map and signature-check once; every shard shares the one mapping. Each
  // shard still re-runs admission against its own SecureWorld and installs its
  // own replayer; the store-level publish is idempotent per driverlet.
  DLT_ASSIGN_OR_RETURN(std::shared_ptr<const MappedPackage> pkg,
                       MappedPackage::Map(path, signing_key_));
  std::string name;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> exec(shard->exec_mu);
    DLT_ASSIGN_OR_RETURN(name, shard->service->RegisterDriverlet(pkg));
  }
  return name;
}

void ReplayFleet::Start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  workers_.reserve(threads_target_);
  for (size_t w = 0; w < threads_target_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

void ReplayFleet::Stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    wake_cv_.notify_all();
    for (auto& t : workers_) {
      t.join();
    }
    workers_.clear();
  }
  // Abort whatever is still queued so no submitter waits on a completion that
  // will never arrive. Taken after the join: the queues are quiescent.
  for (auto& shard : shards_) {
    std::deque<Pending> orphans;
    {
      std::scoped_lock lk(shard->exec_mu, shard->queue_mu);
      orphans.swap(shard->queue);
    }
    for (auto& p : orphans) {
      queued_total_.fetch_sub(1, std::memory_order_relaxed);
      if (shard->tel_queue_depth != nullptr) {
        shard->tel_queue_depth->Sub(1);
        tel_fleet_queue_depth_->Sub(1);
      }
      CompleteAs(p.id, std::vector<Result<ReplayStats>>(
                           p.cmds.size(), Result<ReplayStats>(Status::kAborted)));
    }
  }
}

Result<FleetSessionId> ReplayFleet::OpenSession(std::string_view driverlet) {
  size_t best = 0;
  size_t best_load = SIZE_MAX;
  for (size_t i = 0; i < shards_.size(); ++i) {
    size_t load = shards_[i]->open_sessions.load(std::memory_order_relaxed);
    if (load < best_load) {
      best = i;
      best_load = load;
    }
  }
  return OpenSessionOn(best, driverlet);
}

Result<FleetSessionId> ReplayFleet::OpenSessionOn(size_t shard, std::string_view driverlet) {
  if (shard >= shards_.size()) {
    return Status::kInvalidArg;
  }
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> exec(s.exec_mu);
  DLT_ASSIGN_OR_RETURN(SessionId local, s.service->OpenSession(driverlet));
  s.open_sessions.fetch_add(1, std::memory_order_relaxed);
  if (s.tel_sessions != nullptr) {
    s.tel_sessions->Add(1);
    tel_fleet_sessions_->Add(1);
  }
  return (static_cast<uint64_t>(shard) << 32) | local;
}

Status ReplayFleet::CloseSession(FleetSessionId id) {
  size_t shard = FleetShardOf(id);
  if (shard >= shards_.size()) {
    return Status::kNotFound;
  }
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> exec(s.exec_mu);
  Status st = s.service->CloseSession(FleetLocalSession(id));
  if (st == Status::kOk) {
    s.open_sessions.fetch_sub(1, std::memory_order_relaxed);
    if (s.tel_sessions != nullptr) {
      s.tel_sessions->Sub(1);
      tel_fleet_sessions_->Sub(1);
    }
  }
  return st;
}

Result<uint64_t> ReplayFleet::Submit(FleetSessionId id, std::string entry, ReplayArgs args) {
  std::vector<RingCmd> one(1);
  one[0].entry = std::move(entry);
  one[0].args = std::move(args);
  return SubmitBatch(id, std::move(one));
}

Result<uint64_t> ReplayFleet::SubmitBatch(FleetSessionId id, std::vector<RingCmd> cmds) {
  if (cmds.empty()) {
    return Status::kInvalidArg;  // an empty doorbell never reaches the fleet
  }
  size_t shard = FleetShardOf(id);
  if (shard >= shards_.size()) {
    return Status::kNotFound;
  }
  Shard& s = *shards_[shard];
  const uint64_t n_cmds = cmds.size();
  uint64_t request_id;
  {
    std::lock_guard<std::mutex> lk(s.queue_mu);
    if (s.queue.size() >= cfg_.queue_depth) {
      s.busy_rejects.fetch_add(1, std::memory_order_relaxed);
      return Status::kBusy;
    }
    Pending p;
    p.id = next_request_.fetch_add(1, std::memory_order_relaxed);
    p.session = FleetLocalSession(id);
    p.cmds = std::move(cmds);
    p.submitted = std::chrono::steady_clock::now();
    request_id = p.id;
    s.queue.push_back(std::move(p));
  }
  s.submitted.fetch_add(n_cmds, std::memory_order_relaxed);
  queued_total_.fetch_add(1, std::memory_order_relaxed);
  if (s.tel_queue_depth != nullptr) {
    s.tel_queue_depth->Add(1);
    tel_fleet_queue_depth_->Add(1);
  }
  wake_cv_.notify_all();
  return request_id;
}

Result<ReplayStats> ReplayFleet::TakeCompletion(uint64_t request_id) {
  std::lock_guard<std::mutex> lk(comp_mu_);
  auto it = completions_.find(request_id);
  if (it == completions_.end()) {
    return Status::kNotFound;
  }
  if (it->second.size() != 1) {
    // Batch request: per-command results don't collapse into one. Leave the
    // completion collectable via TakeBatchCompletion.
    return Status::kInvalidArg;
  }
  Result<ReplayStats> r = std::move(it->second.front());
  completions_.erase(it);
  return r;
}

Result<std::vector<Result<ReplayStats>>> ReplayFleet::TakeBatchCompletion(uint64_t request_id) {
  std::lock_guard<std::mutex> lk(comp_mu_);
  auto it = completions_.find(request_id);
  if (it == completions_.end()) {
    return Status::kNotFound;
  }
  std::vector<Result<ReplayStats>> r = std::move(it->second);
  completions_.erase(it);
  return r;
}

Result<ReplayStats> ReplayFleet::WaitCompletion(uint64_t request_id) {
  std::unique_lock<std::mutex> lk(comp_mu_);
  comp_cv_.wait(lk, [&] { return completions_.find(request_id) != completions_.end(); });
  auto it = completions_.find(request_id);
  if (it->second.size() != 1) {
    return Status::kInvalidArg;  // see TakeCompletion
  }
  Result<ReplayStats> r = std::move(it->second.front());
  completions_.erase(it);
  return r;
}

std::vector<Result<ReplayStats>> ReplayFleet::WaitBatchCompletion(uint64_t request_id) {
  std::unique_lock<std::mutex> lk(comp_mu_);
  comp_cv_.wait(lk, [&] { return completions_.find(request_id) != completions_.end(); });
  auto it = completions_.find(request_id);
  std::vector<Result<ReplayStats>> r = std::move(it->second);
  completions_.erase(it);
  return r;
}

Result<ReplayStats> ReplayFleet::Invoke(FleetSessionId id, std::string_view entry,
                                        const ReplayArgs& args) {
  if (running()) {
    DLT_ASSIGN_OR_RETURN(uint64_t req, Submit(id, std::string(entry), args));
    return WaitCompletion(req);
  }
  // Stopped-pool path: execute directly on the caller's thread, same locking
  // discipline as a worker (single-threaded tests never spin up the pool).
  size_t shard = FleetShardOf(id);
  if (shard >= shards_.size()) {
    return Status::kNotFound;
  }
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> exec(s.exec_mu);
  Result<ReplayStats> r = s.service->Invoke(FleetLocalSession(id), entry, args);
  s.executed.fetch_add(1, std::memory_order_relaxed);
  if (s.tel_executed != nullptr) {
    s.tel_executed->Inc();
  }
  return r;
}

size_t ReplayFleet::ProcessQueuedInline(size_t max_requests) {
  size_t total = 0;
  bool progress = true;
  while (total < max_requests && progress) {
    progress = false;
    for (auto& shard : shards_) {
      size_t n = RunShard(*shard, /*as_thief=*/false, max_requests - total);
      total += n;
      progress = progress || n > 0;
      if (total >= max_requests) {
        break;
      }
    }
  }
  return total;
}

FleetStats ReplayFleet::stats() const {
  FleetStats fs;
  for (const auto& shard : shards_) {
    ShardStats ss;
    ss.submitted = shard->submitted.load(std::memory_order_relaxed);
    ss.executed = shard->executed.load(std::memory_order_relaxed);
    ss.stolen = shard->stolen.load(std::memory_order_relaxed);
    ss.busy_rejects = shard->busy_rejects.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(shard->queue_mu);
      ss.queue_depth = shard->queue.size();
    }
    ss.open_sessions = shard->open_sessions.load(std::memory_order_relaxed);
    fs.submitted += ss.submitted;
    fs.executed += ss.executed;
    fs.stolen += ss.stolen;
    fs.busy_rejects += ss.busy_rejects;
    fs.shards.push_back(std::move(ss));
  }
  return fs;
}

void ReplayFleet::WorkerLoop(size_t worker) {
  while (running_.load(std::memory_order_acquire)) {
    size_t did = 0;
    // Home shards first: shard s lives on worker s mod T.
    for (size_t s = worker; s < shards_.size(); s += threads_target_) {
      did += RunShard(*shards_[s], /*as_thief=*/false, cfg_.batch_limit);
    }
    if (did == 0 && cfg_.stealing) {
      // Idle: steal one invoke at a time from someone else's backlog. One at
      // a time keeps the thief responsive to its own shards filling back up.
      for (size_t s = 0; s < shards_.size() && did == 0; ++s) {
        if (s % threads_target_ == worker) {
          continue;
        }
        did += RunShard(*shards_[s], /*as_thief=*/true, 1);
      }
    }
    if (did == 0) {
      std::unique_lock<std::mutex> lk(wake_mu_);
      wake_cv_.wait_for(lk, std::chrono::microseconds(200), [&] {
        return !running_.load(std::memory_order_acquire) ||
               queued_total_.load(std::memory_order_relaxed) > 0;
      });
    }
  }
}

size_t ReplayFleet::RunShard(Shard& s, bool as_thief, size_t limit) {
  std::unique_lock<std::mutex> exec(s.exec_mu, std::try_to_lock);
  if (!exec.owns_lock()) {
    return 0;  // someone else is driving this shard; don't block
  }
  size_t done = 0;
  Pending p;
  while (done < limit && PopWork(s, as_thief, &p)) {
    Execute(s, std::move(p), as_thief);
    ++done;
  }
  return done;
}

bool ReplayFleet::PopWork(Shard& s, bool as_thief, Pending* out) {
  std::lock_guard<std::mutex> lk(s.queue_mu);
  if (s.queue.empty()) {
    return false;
  }
  size_t victim = 0;
  if (!as_thief) {
    // Home order: the front, oldest first.
    victim = 0;
  } else {
    // Thieves take from the tail — but a session's invokes must run in
    // submission order, so a candidate is stealable only when no *earlier*
    // queued item belongs to the same session.
    bool found = false;
    for (size_t i = s.queue.size(); i-- > 0;) {
      bool blocked = false;
      for (size_t j = 0; j < i; ++j) {
        if (s.queue[j].session == s.queue[i].session) {
          blocked = true;
          break;
        }
      }
      if (!blocked) {
        victim = i;
        found = true;
        break;
      }
    }
    if (!found) {
      return false;  // every tail item has an older same-session sibling
    }
  }
  *out = std::move(s.queue[victim]);
  s.queue.erase(s.queue.begin() + static_cast<ptrdiff_t>(victim));
  queued_total_.fetch_sub(1, std::memory_order_relaxed);
  if (s.tel_queue_depth != nullptr) {
    s.tel_queue_depth->Sub(1);
    tel_fleet_queue_depth_->Sub(1);
  }
  return true;
}

void ReplayFleet::Execute(Shard& s, Pending p, bool as_thief) {
  auto start = std::chrono::steady_clock::now();
  auto wait = start - p.submitted;
  queue_wait_us_.Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(wait).count()));
  const uint64_t n = p.cmds.size();
  // The whole batch runs as one InvokeBatch under this continuous exec_mu
  // hold: two world switches total, and no other worker can interleave
  // commands into the batch.
  std::vector<Result<ReplayStats>> r = s.service->InvokeBatch(p.session, p.cmds.data(),
                                                              p.cmds.size());
  if (cfg_.invoke_floor_us != 0) {
    auto floor = std::chrono::microseconds(cfg_.invoke_floor_us * n);
    auto elapsed = std::chrono::steady_clock::now() - start;
    if (elapsed < floor) {
      // Device-latency pacing: hold the shard busy for the rest of the floor,
      // with exec_mu held — concurrent shards keep draining their own queues.
      std::this_thread::sleep_for(floor - elapsed);
    }
  }
  s.executed.fetch_add(n, std::memory_order_relaxed);
  if (s.tel_executed != nullptr) {
    s.tel_executed->Inc(n);
  }
  if (as_thief) {
    s.stolen.fetch_add(n, std::memory_order_relaxed);
    if (s.tel_steals != nullptr) {
      s.tel_steals->Inc();
      tel_fleet_steals_->Inc();
    }
  }
  CompleteAs(p.id, std::move(r));
}

void ReplayFleet::CompleteAs(uint64_t request_id, std::vector<Result<ReplayStats>> r) {
  {
    std::lock_guard<std::mutex> lk(comp_mu_);
    completions_.emplace(request_id, std::move(r));
  }
  comp_cv_.notify_all();
}

}  // namespace dlt
