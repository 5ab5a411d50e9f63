#include "src/record/campaign.h"

#include <algorithm>

namespace dlt {

namespace {

// Structural equality: the same atoms in the same order.
bool SameConstraint(const Constraint& a, const Constraint& b) {
  return std::equal(a.atoms().begin(), a.atoms().end(), b.atoms().begin(), b.atoms().end(),
                    ConstraintAtom::Equal);
}

enum class EventClass : uint8_t { kInput, kOutput, kMeta };

EventClass ClassOf(EventKind k) {
  switch (k) {
    case EventKind::kRegRead:
    case EventKind::kShmRead:
    case EventKind::kDmaAlloc:
    case EventKind::kGetRandBytes:
    case EventKind::kGetTimestamp:
    case EventKind::kWaitIrq:
    case EventKind::kCopyFromDma:
    case EventKind::kPioIn:
      return EventClass::kInput;
    case EventKind::kRegWrite:
    case EventKind::kShmWrite:
    case EventKind::kDelay:
    case EventKind::kCopyToDma:
    case EventKind::kPioOut:
      return EventClass::kOutput;
    case EventKind::kPollReg:
    case EventKind::kPollShm:
      return EventClass::kMeta;
  }
  return EventClass::kMeta;
}

}  // namespace

EventBreakdown CountEvents(const InteractionTemplate& t) {
  EventBreakdown b;
  for (const auto& e : t.events) {
    switch (ClassOf(e.kind)) {
      case EventClass::kInput: ++b.input; break;
      case EventClass::kOutput: ++b.output; break;
      case EventClass::kMeta: ++b.meta; break;
    }
  }
  return b;
}

bool SameStateTransition(const TemplateEvent& a, const TemplateEvent& b) {
  if (a.kind != b.kind || a.device != b.device || a.reg_off != b.reg_off ||
      a.irq_line != b.irq_line || a.mask != b.mask || a.want != b.want ||
      a.poll_cmp != b.poll_cmp || a.state_changing != b.state_changing ||
      a.buffer != b.buffer) {
    return false;
  }
  if (!Expr::Equal(a.addr, b.addr) || !Expr::Equal(a.value, b.value) ||
      !Expr::Equal(a.buf_offset, b.buf_offset) ||
      !SameConstraint(a.constraint, b.constraint)) {
    return false;
  }
  return SameStateTransition(a.body, b.body);
}

bool SameStateTransition(const std::vector<TemplateEvent>& a,
                         const std::vector<TemplateEvent>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const TemplateEvent& x, const TemplateEvent& y) {
                      return SameStateTransition(x, y);
                    });
}

bool Mergeable(const InteractionTemplate& a, const InteractionTemplate& b) {
  if (a.entry != b.entry || a.primary_device != b.primary_device) {
    return false;
  }
  return SameConstraint(a.initial, b.initial) && SameStateTransition(a.events, b.events);
}

bool RecordCampaign::AddTemplate(InteractionTemplate t) {
  for (auto& existing : templates_) {
    if (Mergeable(existing, t)) {
      // The kept template now stands for both runs: clean only if both were.
      existing.leaves_clean_state = existing.leaves_clean_state && t.leaves_clean_state;
      return false;
    }
  }
  templates_.push_back(std::move(t));
  return true;
}

DriverletPackage RecordCampaign::MakePackage() const {
  DriverletPackage pkg;
  pkg.driverlet = driverlet_name_;
  pkg.templates = templates_;
  return pkg;
}

std::vector<uint8_t> RecordCampaign::Seal(std::string_view key, PackageSizes* sizes) const {
  return SealPackage(driverlet_name_, templates_, key, sizes);
}

}  // namespace dlt
