#include "src/tee/replay_service.h"

#include <utility>

#include "src/obs/edge.h"
#include "src/obs/telemetry.h"
#include "src/soc/log.h"

namespace dlt {

namespace {
bool g_ring_wrap_quirk = false;
}  // namespace

void SetRingWrapQuirkForTest(bool enabled) { g_ring_wrap_quirk = enabled; }
bool RingWrapQuirkForTest() { return g_ring_wrap_quirk; }

ReplayService::ReplayService(SecureWorld* tee, std::string signing_key,
                             ReplayServiceConfig cfg)
    : ReplayService(tee, std::move(signing_key), cfg, nullptr) {}

ReplayService::ReplayService(SecureWorld* tee, std::string signing_key,
                             ReplayServiceConfig cfg, std::unique_ptr<TemplateStore> store)
    : tee_(tee),
      signing_key_(std::move(signing_key)),
      cfg_(cfg),
      store_(store != nullptr ? std::move(store) : std::make_unique<TemplateStore>()) {}

Result<std::string> ReplayService::RegisterDriverlet(const uint8_t* data, size_t len) {
  DLT_ASSIGN_OR_RETURN(DriverletPackage pkg, OpenPackage(data, len, signing_key_));
  return RegisterDriverlet(pkg);
}

Result<std::string> ReplayService::RegisterDriverlet(const DriverletPackage& pkg) {
  // Admission: every device the templates touch must already be mapped into
  // this SecureWorld — a package naming an unmapped device would fail deep in
  // replay; refuse it at the door instead.
  for (uint16_t dev : TemplateStore::PackageDevices(pkg)) {
    if (!tee_->DeviceMapped(dev)) {
      DLT_LOG(kWarn) << "driverlet " << pkg.driverlet << " refused: device " << dev
                     << " not mapped into the TEE";
      EdgeCoverage::Get().Hit(Edge::kServiceRegisterReject);
      return Status::kPermissionDenied;
    }
  }
  auto it = replayers_.find(pkg.driverlet);
  if (it == replayers_.end()) {
    auto replayer =
        std::make_unique<Replayer>(tee_, signing_key_, store_.get(), pkg.driverlet);
    replayer->set_retry_backoff_us(cfg_.retry_backoff_us);
    DLT_RETURN_IF_ERROR(replayer->LoadPackage(pkg));
    replayers_.emplace(pkg.driverlet, std::move(replayer));
  } else {
    // Re-registering a device class replaces its templates only.
    DLT_RETURN_IF_ERROR(it->second->LoadPackage(pkg));
  }
  EdgeCoverage::Get().Hit(Edge::kServiceRegister);
  Telemetry& tel = Telemetry::Get();
  if (tel.enabled()) {
    tel.metrics().counter("service.packages_registered").Inc();
  }
  return pkg.driverlet;
}

Result<std::string> ReplayService::RegisterDriverletFile(const std::string& path) {
  DLT_ASSIGN_OR_RETURN(std::shared_ptr<const MappedPackage> pkg,
                       MappedPackage::Map(path, signing_key_));
  return RegisterDriverlet(std::move(pkg));
}

Result<std::string> ReplayService::RegisterDriverlet(std::shared_ptr<const MappedPackage> pkg) {
  if (pkg == nullptr) {
    return Status::kInvalidArg;
  }
  // Same admission gate as the eager path, fed from the seal-time device
  // directory — the whole point is to not parse 100k event bodies here.
  const PackageView& view = pkg->view();
  std::set<uint16_t> devs;
  for (size_t i = 0; i < view.size(); ++i) {
    const std::vector<uint16_t>& d = view.devices(i);
    devs.insert(d.begin(), d.end());
  }
  std::string name = pkg->driverlet();
  for (uint16_t dev : devs) {
    if (!tee_->DeviceMapped(dev)) {
      DLT_LOG(kWarn) << "driverlet " << name << " refused: device " << dev
                     << " not mapped into the TEE";
      EdgeCoverage::Get().Hit(Edge::kServiceRegisterReject);
      return Status::kPermissionDenied;
    }
  }
  DLT_RETURN_IF_ERROR(store_->AddMappedPackage(std::move(pkg)));
  if (replayers_.find(name) == replayers_.end()) {
    auto replayer = std::make_unique<Replayer>(tee_, signing_key_, store_.get(), name);
    replayer->set_retry_backoff_us(cfg_.retry_backoff_us);
    replayers_.emplace(name, std::move(replayer));
  }
  EdgeCoverage::Get().Hit(Edge::kServiceRegister);
  Telemetry& tel = Telemetry::Get();
  if (tel.enabled()) {
    tel.metrics().counter("service.packages_registered").Inc();
  }
  return name;
}

bool ReplayService::IsRegistered(std::string_view driverlet) const {
  return replayers_.find(driverlet) != replayers_.end();
}

Replayer* ReplayService::replayer(std::string_view driverlet) {
  auto it = replayers_.find(driverlet);
  return it == replayers_.end() ? nullptr : it->second.get();
}

Result<SessionId> ReplayService::OpenSession(std::string_view driverlet) {
  Telemetry& tel = Telemetry::Get();
  auto it = replayers_.find(driverlet);
  if (it == replayers_.end()) {
    EdgeCoverage::Get().Hit(Edge::kServiceOpenReject);
    if (tel.enabled()) {
      tel.metrics().counter("service.sessions_rejected").Inc();
    }
    return Status::kNotFound;  // admission: only verified, registered packages
  }
  if (sessions_.size() >= cfg_.max_sessions) {
    EdgeCoverage::Get().Hit(Edge::kServiceOpenReject);
    if (tel.enabled()) {
      tel.metrics().counter("service.sessions_rejected").Inc();
    }
    return Status::kBusy;
  }
  SessionId id = next_session_++;
  Session& s = sessions_[id];
  s.driverlet = it->first;
  s.stats.driverlet = it->first;
  s.stats.opened_us = tee_->TimestampUs();
  EdgeCoverage::Get().Hit(Edge::kServiceOpen);
  if (tel.enabled()) {
    tel.metrics().counter("service.sessions_opened").Inc();
  }
  return id;
}

Status ReplayService::CloseSession(SessionId id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::kNotFound;
  }
  sessions_.erase(it);
  // Requests still queued under this session complete as kNotFound when
  // processed — the submitter learns its session died, FIFO order is kept.
  EdgeCoverage::Get().Hit(Edge::kServiceClose);
  Telemetry& tel = Telemetry::Get();
  if (tel.enabled()) {
    tel.metrics().counter("service.sessions_closed").Inc();
  }
  return Status::kOk;
}

// Device-health failures climb the quarantine ladder; client errors (uncovered
// input, bad arguments, policy rejections) say nothing about the device and
// neither count nor clear the streak.
static bool IsDeviceHealthFailure(Status s) {
  return s == Status::kAborted || s == Status::kTimeout || s == Status::kDiverged ||
         s == Status::kIoError;
}

Result<ReplayStats> ReplayService::DoInvokeOne(Session& s, std::string_view entry,
                                               const ReplayArgs& args) {
  Replayer* rep = replayer(s.driverlet);
  if (rep == nullptr) {
    return Status::kBadState;  // registration cannot be revoked; defensive
  }
  Telemetry& tel = Telemetry::Get();
  if (s.stats.quarantined) {
    // Ladder rung 3: fail fast, never touch the device again on this session.
    EdgeCoverage::Get().Hit(Edge::kServiceQuarantineReject);
    if (tel.enabled()) {
      tel.metrics().counter("service.quarantine_rejects").Inc();
    }
    return Status::kQuarantined;
  }
  uint64_t t0 = tel.enabled() ? tee_->TimestampUs() : 0;
  Result<ReplayStats> r = rep->Invoke(entry, args);
  ++s.stats.invokes;
  s.stats.last_invoke_us = tee_->TimestampUs();
  // Runtime integrity: fold the final attempt's measurement into the session
  // PCR and record it, whether or not the invoke succeeded — the attestation
  // quote commits to failures too. A divergence from the template's golden
  // hash is counted here; whether it *quarantines* depends on the policy knob.
  const MeasurementRecord& m = rep->last_measurement();
  bool mismatch = false;
  if (m.valid) {
    s.pcr.Extend(m.digest);
    s.stats.last_measurement = m.Hex();
    if (!m.matches_golden) {
      mismatch = true;
      ++s.stats.measurement_mismatches;
      EdgeCoverage::Get().Hit(Edge::kServiceMeasurementMismatch);
      if (tel.enabled()) {
        tel.metrics().counter("service.integrity_mismatches").Inc();
      }
    }
  }
  if (r.ok()) {
    EdgeCoverage::Get().Hit(Edge::kServiceInvokeOk);
    s.stats.events_executed += r->events_executed;
    s.stats.resets += static_cast<uint64_t>(r->resets);
    s.stats.attempts += static_cast<uint64_t>(r->attempts);
    s.stats.consecutive_device_failures = 0;
    ++s.stats.per_template[r->template_name];
  } else {
    EdgeCoverage::Get().Hit(Edge::kServiceInvokeFail);
    ++s.stats.failures;
    if (cfg_.enforce_integrity && mismatch && IsDeviceHealthFailure(r.status())) {
      // Ladder rung 0: the execution trace itself diverged from the template's
      // golden measurement — quarantine immediately, below the consecutive-
      // failure threshold. The streak still advances so telemetry stays
      // comparable with the threshold-only policy.
      ++s.stats.consecutive_device_failures;
      s.stats.quarantined = true;
      ++quarantined_total_;
      DLT_LOG(kWarn) << "session on " << s.driverlet
                     << " quarantined: runtime measurement diverged from golden ("
                     << StatusName(r.status()) << ")";
      EdgeCoverage::Get().Hit(Edge::kServiceIntegrityQuarantine);
      if (tel.enabled()) {
        tel.metrics().counter("service.integrity_quarantines").Inc();
        tel.metrics().counter("service.quarantines").Inc();
      }
    } else if (IsDeviceHealthFailure(r.status()) && cfg_.quarantine_threshold > 0 &&
               ++s.stats.consecutive_device_failures >= cfg_.quarantine_threshold) {
      s.stats.quarantined = true;
      ++quarantined_total_;
      DLT_LOG(kWarn) << "session on " << s.driverlet << " quarantined after "
                     << s.stats.consecutive_device_failures
                     << " consecutive device failures (last: "
                     << StatusName(r.status()) << ")";
      EdgeCoverage::Get().Hit(Edge::kServiceQuarantine);
      if (tel.enabled()) {
        tel.metrics().counter("service.quarantines").Inc();
      }
    }
  }
  if (tel.enabled()) {
    tel.metrics().counter("service.invokes").Inc();
    tel.metrics().counter("service.invokes." + s.driverlet).Inc();
    if (!r.ok()) {
      tel.metrics().counter("service.failures").Inc();
    }
    tel.metrics().histogram("service.invoke_us").Record(tee_->TimestampUs() - t0);
  }
  return r;
}

void ReplayService::DoInvokeBatch(BatchItem* items, size_t n) {
  if (n == 0) {
    return;  // nothing pending: the SMC boundary is not crossed at all
  }
  Telemetry& tel = Telemetry::Get();
  EdgeCoverage::Get().Hit(Edge::kServiceBatch);
  tee_->WorldSwitch("smc_invoke", 0);
  uint64_t batch_t0 = tee_->TimestampUs();
  for (size_t i = 0; i < n; ++i) {
    if (tel.enabled()) {
      // In-batch queue wait: how long this command sat behind its batch
      // siblings after the doorbell (virtual time). Grows with batch size —
      // the latency cost that buys the switch amortization.
      tel.metrics().histogram("ring.queue_wait_us").Record(tee_->TimestampUs() - batch_t0);
    }
    if (items[i].session == nullptr) {
      EdgeCoverage::Get().Hit(Edge::kServiceSessionGone);
      *items[i].out = Status::kNotFound;  // session closed before the drain
    } else {
      *items[i].out = DoInvokeOne(*items[i].session, items[i].entry, *items[i].args);
    }
  }
  tee_->WorldSwitch("smc_return", 1);
}

Result<ReplayStats> ReplayService::Invoke(SessionId id, std::string_view entry,
                                          const ReplayArgs& args) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::kNotFound;
  }
  Result<ReplayStats> out{Status::kBadState};
  BatchItem item{&it->second, entry, &args, &out};
  DoInvokeBatch(&item, 1);
  return out;
}

std::vector<Result<ReplayStats>> ReplayService::InvokeBatch(SessionId id, const RingCmd* cmds,
                                                            size_t n) {
  std::vector<Result<ReplayStats>> out(n, Result<ReplayStats>(Status::kBadState));
  if (n == 0) {
    return out;
  }
  auto it = sessions_.find(id);
  Session* s = it == sessions_.end() ? nullptr : &it->second;
  std::vector<BatchItem> items(n);
  for (size_t i = 0; i < n; ++i) {
    items[i] = BatchItem{s, cmds[i].entry, &cmds[i].args, &out[i]};
  }
  DoInvokeBatch(items.data(), n);
  return out;
}

Result<uint64_t> ReplayService::Submit(SessionId id, std::string entry, ReplayArgs args) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::kNotFound;
  }
  if (it->second.stats.quarantined) {
    Telemetry& tel = Telemetry::Get();
    if (tel.enabled()) {
      tel.metrics().counter("service.quarantine_rejects").Inc();
    }
    return Status::kQuarantined;  // fail fast instead of occupying the queue
  }
  if (queue_.size() >= cfg_.queue_depth) {
    EdgeCoverage::Get().Hit(Edge::kServiceQueueReject);
    Telemetry& tel = Telemetry::Get();
    if (tel.enabled()) {
      tel.metrics().counter("service.queue_rejects").Inc();
    }
    return Status::kBusy;
  }
  EdgeCoverage::Get().Hit(Edge::kServiceQueueSubmit);
  Pending p;
  p.id = next_request_++;
  p.session = id;
  p.entry = std::move(entry);
  p.args = std::move(args);
  p.submit_us = tee_->TimestampUs();
  queue_.push_back(std::move(p));
  ++it->second.stats.submitted;
  return queue_.back().id;
}

size_t ReplayService::ProcessQueued(size_t max_requests) {
  Telemetry& tel = Telemetry::Get();
  // Pop the whole drain up front, then execute it as ONE batch — the FIFO
  // path pays two world switches per drain, not per request. queue_wait_us
  // measures submit → drain start; the in-batch wait behind earlier commands
  // of the same drain lands in ring.queue_wait_us (recorded by the batch).
  std::vector<Pending> drain;
  while (drain.size() < max_requests && !queue_.empty()) {
    drain.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  if (drain.empty()) {
    return 0;
  }
  EdgeCoverage::Get().Hit(Edge::kServiceQueueDrain);
  std::vector<Result<ReplayStats>> results(drain.size(),
                                           Result<ReplayStats>(Status::kBadState));
  std::vector<BatchItem> items(drain.size());
  for (size_t i = 0; i < drain.size(); ++i) {
    if (tel.enabled()) {
      tel.metrics().histogram("service.queue_wait_us").Record(tee_->TimestampUs() -
                                                              drain[i].submit_us);
    }
    auto it = sessions_.find(drain[i].session);
    items[i] = BatchItem{it == sessions_.end() ? nullptr : &it->second, drain[i].entry,
                         &drain[i].args, &results[i]};
  }
  DoInvokeBatch(items.data(), items.size());
  for (size_t i = 0; i < drain.size(); ++i) {
    completions_.emplace(drain[i].id, std::move(results[i]));
  }
  return drain.size();
}

Result<InvocationRing*> ReplayService::Ring(SessionId id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::kNotFound;
  }
  if (it->second.ring == nullptr) {
    it->second.ring = std::make_unique<InvocationRing>(cfg_.ring_depth);
  }
  return it->second.ring.get();
}

Result<uint64_t> ReplayService::RingPush(SessionId id, std::string entry, ReplayArgs args) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::kNotFound;
  }
  Telemetry& tel = Telemetry::Get();
  if (it->second.stats.quarantined) {
    if (tel.enabled()) {
      tel.metrics().counter("service.quarantine_rejects").Inc();
    }
    return Status::kQuarantined;  // fail fast instead of occupying a slot
  }
  if (it->second.ring == nullptr) {
    it->second.ring = std::make_unique<InvocationRing>(cfg_.ring_depth);
  }
  Result<uint64_t> seq = it->second.ring->Push(std::move(entry), std::move(args));
  if (seq.ok()) {
    ++it->second.stats.submitted;
    if (tel.enabled()) {
      tel.metrics().gauge("ring.sq_depth").Set(it->second.ring->submission_depth());
    }
  } else {
    EdgeCoverage::Get().Hit(Edge::kRingFull);
    if (tel.enabled()) {
      tel.metrics().counter("ring.full_rejects").Inc();
    }
  }
  return seq;
}

Result<size_t> ReplayService::RingDoorbell(SessionId id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::kNotFound;
  }
  Session& s = it->second;
  if (s.ring == nullptr) {
    return size_t{0};
  }
  InvocationRing& ring = *s.ring;
  const uint64_t begin = ring.drain_begin();
  const uint64_t end = ring.drain_end();
  const size_t n = static_cast<size_t>(end - begin);
  Telemetry& tel = Telemetry::Get();
  if (tel.enabled()) {
    tel.metrics().counter("ring.doorbells").Inc();
    tel.metrics().histogram("ring.batch_size").Record(n);
  }
  if (n == 0) {
    EdgeCoverage::Get().Hit(Edge::kRingEmptyDoorbell);
    return size_t{0};  // empty doorbell: no switch charged, nothing to do
  }
  EdgeCoverage::Get().Hit(Edge::kRingDoorbell);
  std::vector<BatchItem> items;
  items.reserve(n);
  for (uint64_t seq = begin; seq != end; ++seq) {
    RingCmd& c = ring.command(seq);
    items.push_back(BatchItem{&s, c.entry, &c.args, &ring.result_slot(seq)});
  }
  DoInvokeBatch(items.data(), items.size());
  ring.FinishDrain(end);
  if (tel.enabled()) {
    tel.metrics().gauge("ring.sq_depth").Set(ring.submission_depth());
    tel.metrics().gauge("ring.cq_depth").Set(ring.completion_depth());
  }
  return n;
}

Result<RingCompletion> ReplayService::RingPop(SessionId id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::kNotFound;
  }
  if (it->second.ring == nullptr) {
    return Status::kNotFound;
  }
  Result<RingCompletion> c = it->second.ring->PopCompletion();
  if (c.ok()) {
    EdgeCoverage::Get().Hit(Edge::kRingPop);
    Telemetry& tel = Telemetry::Get();
    if (tel.enabled()) {
      tel.metrics().gauge("ring.cq_depth").Set(it->second.ring->completion_depth());
    }
  } else {
    EdgeCoverage::Get().Hit(Edge::kRingPopEmpty);
  }
  return c;
}

Result<ReplayStats> ReplayService::TakeCompletion(uint64_t request_id) {
  auto it = completions_.find(request_id);
  if (it == completions_.end()) {
    return Status::kNotFound;
  }
  Result<ReplayStats> r = std::move(it->second);
  completions_.erase(it);
  return r;
}

Result<SessionStats> ReplayService::Stats(SessionId id) const {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::kNotFound;
  }
  return it->second.stats;
}

Result<AttestationQuote> ReplayService::Attest(SessionId id, std::string nonce) const {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::kNotFound;
  }
  const Session& s = it->second;
  AttestationQuote q;
  q.driverlet = s.driverlet;
  q.session_id = id;
  q.invokes = s.stats.invokes;
  q.failures = s.stats.failures;
  q.measurement_mismatches = s.stats.measurement_mismatches;
  q.quarantined = s.stats.quarantined;
  q.session_measurement = s.pcr.Hex();
  q.last_measurement = s.stats.last_measurement;
  q.nonce = std::move(nonce);
  SignQuote(&q, signing_key_);
  return q;
}

}  // namespace dlt
