#include "src/core/template_store.h"

#include <set>
#include <utility>

#include "src/soc/log.h"

namespace dlt {

namespace {

// Register-interface events are the ones that name a device; walk poll bodies
// too so nested PIO drains are accounted for.
void CollectDevices(const std::vector<TemplateEvent>& events, std::set<uint16_t>* out) {
  for (const TemplateEvent& e : events) {
    switch (e.kind) {
      case EventKind::kRegRead:
      case EventKind::kRegWrite:
      case EventKind::kPollReg:
      case EventKind::kPioIn:
      case EventKind::kPioOut:
        out->insert(e.device);
        break;
      default:
        break;
    }
    if (!e.body.empty()) {
      CollectDevices(e.body, out);
    }
  }
}

}  // namespace

Status TemplateStore::AddPackage(DriverletPackage pkg) {
  if (pkg.driverlet.empty()) {
    return Status::kInvalidArg;
  }
  // Build the whole entry first, then move it in over the old one: only this
  // driverlet's templates are freed, and no other entry moves.
  Driverlet next;
  next.templates = std::move(pkg.templates);
  for (const InteractionTemplate& t : next.templates) {
    // Precompiled: never rebuilt per invoke.
    next.slots[t.entry].push_back(Candidate{&t, t.ScalarParams()});
  }
  driverlets_.insert_or_assign(std::move(pkg.driverlet), std::move(next));
  return Status::kOk;
}

bool TemplateStore::HasDriverlet(std::string_view driverlet) const {
  return driverlets_.find(driverlet) != driverlets_.end();
}

size_t TemplateStore::template_count() const {
  size_t n = 0;
  for (const auto& [name, d] : driverlets_) {
    n += d.templates.size();
  }
  return n;
}

std::vector<const InteractionTemplate*> TemplateStore::templates(
    std::string_view driverlet) const {
  std::vector<const InteractionTemplate*> out;
  auto it = driverlets_.find(driverlet);
  if (it != driverlets_.end()) {
    for (const InteractionTemplate& t : it->second.templates) {
      out.push_back(&t);
    }
  }
  return out;
}

std::vector<uint16_t> TemplateStore::PackageDevices(const DriverletPackage& pkg) {
  std::set<uint16_t> devs;
  for (const InteractionTemplate& t : pkg.templates) {
    devs.insert(t.primary_device);
    CollectDevices(t.events, &devs);
  }
  return std::vector<uint16_t>(devs.begin(), devs.end());
}

Result<const InteractionTemplate*> TemplateStore::Select(
    std::string_view driverlet, std::string_view entry, const Bindings& scalars,
    std::vector<const InteractionTemplate*>* rejected) const {
  auto d = driverlets_.find(driverlet);
  if (d == driverlets_.end()) {
    return Status::kNoTemplate;
  }
  auto slot = d->second.slots.find(entry);
  if (slot == d->second.slots.end()) {
    return Status::kNoTemplate;
  }

  const InteractionTemplate* selected = nullptr;
  for (const Candidate& c : slot->second) {
    ++candidates_scanned_;
    // A template whose param set this invoke does not provide cannot match;
    // skip it and keep considering the rest (same-entry templates may bind
    // different param sets).
    bool have_all = true;
    for (const std::string& p : c.scalar_params) {
      if (scalars.find(p) == scalars.end()) {
        have_all = false;
        break;
      }
    }
    if (!have_all) {
      continue;
    }
    Result<bool> ok = c.tpl->initial.Eval(scalars);
    if (!ok.ok()) {
      continue;  // constraint over non-initial symbols cannot gate selection
    }
    if (!*ok) {
      if (rejected != nullptr) {
        rejected->push_back(c.tpl);
      }
      continue;
    }
    if (selected != nullptr) {
      // By construction no two templates cover the same inputs (the recorder
      // merges same-path templates, §4.3); tolerate but warn.
      DLT_LOG(kWarn) << "template selection ambiguous: " << selected->name << " vs "
                     << c.tpl->name;
      continue;
    }
    selected = c.tpl;
  }
  if (selected == nullptr) {
    return Status::kNoTemplate;
  }
  return selected;
}

}  // namespace dlt
