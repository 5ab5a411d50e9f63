#include "src/core/replayer.h"

#include "src/core/executor.h"
#include "src/obs/telemetry.h"
#include "src/soc/log.h"

namespace dlt {

Replayer::Replayer(ReplayContext* ctx, std::string signing_key)
    : ctx_(ctx), signing_key_(std::move(signing_key)), store_(&owned_store_) {}

Replayer::Replayer(ReplayContext* ctx, std::string signing_key, TemplateStore* store,
                   std::string driverlet)
    : ctx_(ctx),
      signing_key_(std::move(signing_key)),
      store_(store),
      scope_(std::move(driverlet)),
      driverlet_name_(scope_) {}

Status Replayer::LoadPackage(const uint8_t* data, size_t len) {
  DLT_ASSIGN_OR_RETURN(DriverletPackage pkg, OpenPackage(data, len, signing_key_));
  return LoadPackage(pkg);
}

Status Replayer::LoadPackage(const DriverletPackage& pkg) {
  if (!scope_.empty() && pkg.driverlet != scope_) {
    return Status::kInvalidArg;  // scoped replayers serve exactly one driverlet
  }
  DLT_RETURN_IF_ERROR(store_->AddPackage(pkg));
  driverlet_name_ = pkg.driverlet;
  return Status::kOk;
}

std::vector<const InteractionTemplate*> Replayer::templates() const {
  if (!scope_.empty()) {
    return store_->templates(scope_);
  }
  return store_->templates();
}

Result<ReplayStats> Replayer::Invoke(std::string_view entry, const ReplayArgs& args) {
  Telemetry& tel = Telemetry::Get();
  uint64_t invoke_t0 = tel.enabled() ? ctx_->TimestampUs() : 0;
  // Reset before selection: a selection miss must not leave the previous
  // invoke's measurement looking like this one's.
  measurement_ = MeasurementRecord{};

  // Selection goes through the store's (driverlet, entry) index; args.scalars
  // doubles as the constraint bindings (no per-invoke rebuild).
  std::vector<const InteractionTemplate*> rejected;
  Result<const InteractionTemplate*> sel =
      store_->Select(scope_, entry, args.scalars, tel.enabled() ? &rejected : nullptr);
  if (!sel.ok()) {
    if (tel.enabled() && sel.status() == Status::kNoTemplate) {
      tel.metrics().counter("replay.template_miss").Inc();
    }
    return sel.status();
  }
  const InteractionTemplate* tpl = *sel;
  if (tel.enabled()) {
    for (const InteractionTemplate* r : rejected) {
      tel.Instant(TraceKind::kTemplateRejected, ctx_->TimestampUs(), r->name, 0, 0,
                  r->primary_device);
    }
    tel.metrics().counter("replay.template_hit").Inc();
    tel.Instant(TraceKind::kTemplateSelected, ctx_->TimestampUs(), tpl->name, 0, 0,
                tpl->primary_device);
  }

  ReplayStats stats;
  stats.template_name = tpl->name;
  report_ = DivergenceReport{};

  for (int attempt = 1; attempt <= max_attempts_; ++attempt) {
    stats.attempts = attempt;
    if (attempt > 1 && retry_backoff_us_ > 0) {
      // Policy ladder rung 1: give the device virtual time to settle before
      // the reset + re-execution, doubling per failed attempt.
      uint64_t backoff = retry_backoff_us_ << (attempt - 2);
      if (tel.enabled()) {
        tel.metrics().counter("replay.backoffs").Inc();
        tel.metrics().histogram("replay.backoff_us").Record(backoff);
      }
      ctx_->DelayUs(backoff);
    }
    // Reset the device before executing each template and upon divergence —
    // constrains the device state space exactly as a record run did (§3.3, §5).
    if (reset_between_templates_ || attempt > 1) {
      if (tel.enabled()) {
        tel.metrics().counter("replay.soft_resets").Inc();
        tel.Instant(TraceKind::kSoftReset, ctx_->TimestampUs(),
                    attempt > 1 ? "divergence_retry" : "between_templates", 0, 0,
                    tpl->primary_device);
      }
      Status reset = ctx_->SoftResetDevice(tpl->primary_device);
      if (!Ok(reset)) {
        return reset;
      }
      ++stats.resets;
      ++total_resets_;
    }
    ctx_->DmaReleaseAll();

    // Fresh chain per attempt: the measurement describes the final attempt's
    // execution, not the union of retries.
    IntegrityChain chain;
    chain.Begin(*tpl);
    Executor exec(ctx_, tpl, &args);
    exec.set_integrity_chain(&chain);
    Status s = exec.Run(&report_);
    size_t events = exec.events_executed();
    stats.events_executed += events;
    total_events_ += events;
    measurement_.valid = true;
    measurement_.template_name = tpl->name;
    measurement_.events_measured = chain.folded();
    measurement_.digest = chain.digest();
    // A complete run's chain equals the golden measurement by construction;
    // anything that stopped early folded a strict prefix, whose chain value
    // cannot collide with the full one.
    measurement_.matches_golden = Ok(s);
    if (Ok(s)) {
      stats.measurement = measurement_.Hex();
      stats.events_measured = measurement_.events_measured;
      if (tel.enabled()) {
        uint64_t now = ctx_->TimestampUs();
        tel.metrics().histogram("replay.invoke_us").Record(now - invoke_t0);
        tel.Span(TraceKind::kReplayInvoke, invoke_t0, now - invoke_t0, tpl->name,
                 stats.events_executed, static_cast<uint64_t>(stats.attempts),
                 tpl->primary_device);
      }
      return stats;
    }
    if (s != Status::kDiverged && s != Status::kTimeout) {
      return s;  // hard errors (bounds violation, corrupt template) do not retry
    }
    DLT_LOG(kInfo) << "replay divergence in " << tpl->name << " at event #" << report_.event_index
                   << " (" << report_.event_desc << "), attempt " << attempt;
  }
  // Persistent divergence: give up and surface the rewound report (§5).
  if (tel.enabled()) {
    uint64_t now = ctx_->TimestampUs();
    tel.metrics().counter("replay.aborts").Inc();
    tel.Span(TraceKind::kReplayInvoke, invoke_t0, now - invoke_t0, tpl->name,
             stats.events_executed, static_cast<uint64_t>(stats.attempts),
             tpl->primary_device);
  }
  return Status::kAborted;
}

}  // namespace dlt
