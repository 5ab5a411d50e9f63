#include "src/core/replayer.h"

#include <utility>

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
      driverlet_(std::move(driverlet)) {}

Status Replayer::LoadPackage(const uint8_t* data, size_t len) {
  DLT_ASSIGN_OR_RETURN(DriverletPackage pkg, OpenPackage(data, len, signing_key_));
  return LoadPackage(std::move(pkg));
}

Status Replayer::LoadPackage(DriverletPackage pkg) {
  if (!driverlet_.empty() && pkg.driverlet != driverlet_) {
    return Status::kInvalidArg;  // a replayer serves exactly one driverlet
  }
  // AddPackage refuses only an unnamed package, and then driverlet_ stays
  // empty: only a replayer that serves no driverlet yet gets this far with one.
  driverlet_ = pkg.driverlet;
  return store_->AddPackage(std::move(pkg));
}

std::vector<const InteractionTemplate*> Replayer::templates() const {
  return store_->templates(driverlet_);
}

Result<ReplayStats> Replayer::Invoke(std::string_view entry, const ReplayArgs& args) {
  Telemetry& tel = Telemetry::Get();
  uint64_t invoke_t0 = tel.enabled() ? ctx_->TimestampUs() : 0;
  // Reset before selection: a selection miss must not leave the previous
  // invoke's measurement looking like this one's.
  measurement_ = MeasurementRecord{};
  // Only the previous invoke can vouch for the device; this one vouches for
  // the next only if it succeeds cleanly (below).
  std::optional<uint16_t> clean_device = std::exchange(clean_device_, std::nullopt);

  // Selection scans the store's (driverlet, entry) slot; args.scalars doubles
  // as the constraint bindings (no per-invoke rebuild).
  std::vector<const InteractionTemplate*> rejected;
  Result<const InteractionTemplate*> sel =
      store_->Select(driverlet_, entry, args.scalars, tel.enabled() ? &rejected : nullptr);
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
    // constrains the device state space exactly as a record run did (§3.3,
    // §5). A first attempt skips it when the previous template provably left
    // the device in that state already.
    bool elide = attempt == 1 && (reset_policy_ == ResetPolicy::kNever ||
                                  (reset_policy_ == ResetPolicy::kUnlessClean &&
                                   clean_device == tpl->primary_device));
    if (elide) {
      stats.reset_elided = true;
      ++total_resets_elided_;
      if (tel.enabled()) {
        tel.metrics().counter("replay.soft_resets_elided").Inc();
      }
    } else {
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

    Executor exec(ctx_, tpl, &args);
    Status s = exec.Run(&report_);
    size_t events = exec.events_executed();
    stats.events_executed += events;
    total_events_ += events;
    // Measured per attempt: the record describes the final attempt, not the
    // union of retries. A complete run measures the golden value; one that
    // stopped early measures a strict prefix of it.
    measurement_.valid = true;
    measurement_.events_measured = exec.events_completed();
    measurement_.digest = Measure(*tpl, measurement_.events_measured);
    if (Ok(s)) {
      // Started from the post-reset state, ended in it (the recorder's proof),
      // and never diverged: the next template may skip its reset.
      bool started_clean = !elide || clean_device == tpl->primary_device;
      if (attempt == 1 && started_clean && tpl->leaves_clean_state) {
        clean_device_ = tpl->primary_device;
      }
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
