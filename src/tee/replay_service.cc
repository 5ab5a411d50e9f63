#include "src/tee/replay_service.h"

#include <utility>
#include <vector>

#include "src/obs/telemetry.h"
#include "src/soc/log.h"

namespace dlt {

ReplayService::ReplayService(SecureWorld* tee, std::string signing_key,
                             ReplayServiceConfig cfg)
    : tee_(tee), signing_key_(std::move(signing_key)), cfg_(cfg) {}

Result<std::string> ReplayService::RegisterDriverlet(const uint8_t* data, size_t len) {
  DLT_ASSIGN_OR_RETURN(DriverletPackage pkg, OpenPackage(data, len, signing_key_));
  return RegisterDriverlet(std::move(pkg));
}

Result<std::string> ReplayService::RegisterDriverlet(DriverletPackage pkg) {
  Telemetry& tel = Telemetry::Get();
  // Admission: every device the templates touch must already be mapped into
  // this SecureWorld — a package naming an unmapped device would fail deep in
  // replay; refuse it at the door instead.
  for (uint16_t dev : TemplateStore::PackageDevices(pkg)) {
    if (!tee_->DeviceMapped(dev)) {
      DLT_LOG(kWarn) << "driverlet " << pkg.driverlet << " refused: device " << dev
                     << " not mapped into the TEE";
      if (tel.enabled()) {
        tel.metrics().counter("service.register_rejects").Inc();
      }
      return Status::kPermissionDenied;
    }
  }
  std::string name = pkg.driverlet;
  auto it = replayers_.find(name);
  if (it == replayers_.end()) {
    auto replayer = std::make_unique<Replayer>(tee_, signing_key_, &store_, name);
    replayer->set_retry_backoff_us(cfg_.retry_backoff_us);
    DLT_RETURN_IF_ERROR(replayer->LoadPackage(std::move(pkg)));
    replayers_.emplace(name, std::move(replayer));
  } else {
    // Re-registering a device class replaces its templates only.
    DLT_RETURN_IF_ERROR(it->second->LoadPackage(std::move(pkg)));
  }
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
    if (tel.enabled()) {
      tel.metrics().counter("service.sessions_rejected").Inc();
    }
    return Status::kNotFound;  // admission: only verified, registered packages
  }
  if (sessions_.size() >= cfg_.max_sessions) {
    if (tel.enabled()) {
      tel.metrics().counter("service.sessions_rejected").Inc();
    }
    return Status::kBusy;
  }
  SessionId id = next_session_++;
  Session& s = sessions_.try_emplace(id, it->first, cfg_.ring_depth).first->second;
  s.stats.driverlet = it->first;
  s.stats.opened_us = tee_->TimestampUs();
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
    if (tel.enabled()) {
      tel.metrics().counter("service.quarantine_rejects").Inc();
    }
    return Status::kQuarantined;
  }
  uint64_t t0 = tel.enabled() ? tee_->TimestampUs() : 0;
  Result<ReplayStats> r = rep->Invoke(entry, args);
  ++s.stats.invokes;
  s.stats.last_invoke_us = tee_->TimestampUs();
  // Runtime integrity: extend the session PCR with the final attempt's
  // measurement and record it, whether or not the invoke succeeded — the
  // attestation quote commits to failures too. A failed invoke that reached
  // the executor measured short of the template's golden value.
  const MeasurementRecord& m = rep->last_measurement();
  if (m.valid) {
    s.pcr = Extend(s.pcr, m.digest);
    s.stats.last_measurement = m.Hex();
    if (!r.ok()) {
      ++s.stats.measurement_mismatches;
      if (tel.enabled()) {
        tel.metrics().counter("service.integrity_mismatches").Inc();
      }
    }
  }
  if (r.ok()) {
    s.stats.events_executed += r->events_executed;
    s.stats.resets += static_cast<uint64_t>(r->resets);
    s.stats.resets_elided += r->reset_elided ? 1 : 0;
    s.stats.attempts += static_cast<uint64_t>(r->attempts);
    s.stats.consecutive_device_failures = 0;
    ++s.stats.per_template[r->template_name];
  } else {
    ++s.stats.failures;
    if (IsDeviceHealthFailure(r.status()) && cfg_.quarantine_threshold > 0 &&
        ++s.stats.consecutive_device_failures >= cfg_.quarantine_threshold) {
      s.stats.quarantined = true;
      ++quarantined_total_;
      DLT_LOG(kWarn) << "session on " << s.driverlet << " quarantined after "
                     << s.stats.consecutive_device_failures
                     << " consecutive device failures (last: "
                     << StatusName(r.status()) << ")";
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

void ReplayService::RunBatch(Session& s, BatchItem* items, size_t n) {
  Telemetry& tel = Telemetry::Get();
  tee_->WorldSwitch("smc_invoke", 0);
  uint64_t batch_t0 = tee_->TimestampUs();
  for (size_t i = 0; i < n; ++i) {
    if (tel.enabled()) {
      // In-batch queue wait: how long this command sat behind its batch
      // siblings after the doorbell (virtual time). Grows with batch size —
      // the latency cost that buys the switch amortization.
      tel.metrics().histogram("ring.queue_wait_us").Record(tee_->TimestampUs() - batch_t0);
    }
    *items[i].out = DoInvokeOne(s, items[i].entry, *items[i].args);
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
  BatchItem item{entry, &args, &out};
  RunBatch(it->second, &item, 1);
  return out;
}

Result<const InvocationRing*> ReplayService::Ring(SessionId id) const {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::kNotFound;
  }
  return &it->second.ring;
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
  Result<uint64_t> seq = it->second.ring.Push(std::move(entry), std::move(args));
  if (seq.ok()) {
    ++it->second.stats.submitted;
    if (tel.enabled()) {
      tel.metrics().counter("ring.pushes").Inc();
      if (*seq >= it->second.ring.depth()) {
        tel.metrics().counter("ring.wraps").Inc();  // the slot index has wrapped
      }
      tel.metrics().gauge("ring.sq_depth").Set(it->second.ring.submission_depth());
    }
  } else if (tel.enabled()) {
    tel.metrics().counter("ring.full_rejects").Inc();
  }
  return seq;
}

Result<size_t> ReplayService::RingDoorbell(SessionId id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::kNotFound;
  }
  Session& s = it->second;
  InvocationRing& ring = s.ring;
  const uint64_t begin = ring.drain_begin();
  const uint64_t end = ring.drain_end();
  const size_t n = static_cast<size_t>(end - begin);
  Telemetry& tel = Telemetry::Get();
  if (tel.enabled()) {
    tel.metrics().counter("ring.doorbells").Inc();
    tel.metrics().histogram("ring.batch_size").Record(n);
    if (n == 0) {
      tel.metrics().counter("ring.empty_doorbells").Inc();
    }
  }
  if (n == 0) {
    return size_t{0};  // empty doorbell: no switch charged, nothing to do
  }
  std::vector<BatchItem> items;
  items.reserve(n);
  for (uint64_t seq = begin; seq != end; ++seq) {
    RingCmd& c = ring.command(seq);
    items.push_back(BatchItem{c.entry, &c.args, &ring.result_slot(seq)});
  }
  RunBatch(s, items.data(), items.size());
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
  Result<RingCompletion> c = it->second.ring.PopCompletion();
  Telemetry& tel = Telemetry::Get();
  if (tel.enabled()) {
    if (c.ok()) {
      tel.metrics().counter("ring.pops").Inc();
      tel.metrics().gauge("ring.cq_depth").Set(it->second.ring.completion_depth());
    } else {
      tel.metrics().counter("ring.pops_empty").Inc();
    }
  }
  return c;
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
  q.session_measurement = Sha256::HexDigest(s.pcr);
  q.last_measurement = s.stats.last_measurement;
  q.nonce = std::move(nonce);
  SignQuote(&q, signing_key_);
  return q;
}

}  // namespace dlt
