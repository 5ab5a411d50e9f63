#include "src/core/template_store.h"

#include <algorithm>
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

Status TemplateStore::AddPackage(const uint8_t* data, size_t len,
                                 std::string_view signing_key) {
  DLT_ASSIGN_OR_RETURN(DriverletPackage pkg, OpenPackage(data, len, signing_key));
  return AddPackage(pkg);
}

Status TemplateStore::AddPackage(const DriverletPackage& pkg) {
  const std::string& name = pkg.driverlet;
  if (name.empty()) {
    return Status::kInvalidArg;
  }
  std::lock_guard<std::mutex> swap(swap_mu_);
  const Population* cur = population();

  // Copy-on-write: clone the owning storage, splice the new driverlet in, then
  // rebuild the derived indexes against the clone's stable addresses. Loaded
  // templates are immutable, so copying them races with no reader.
  auto next = std::make_unique<Population>();
  if (cur != nullptr) {
    next->load_order = cur->load_order;
    for (const auto& [dname, owned] : cur->by_driverlet) {
      if (dname != name) {
        next->by_driverlet[dname] = owned;
      }
    }
  }
  if (std::find(next->load_order.begin(), next->load_order.end(), name) ==
      next->load_order.end()) {
    next->load_order.push_back(name);
  }
  next->by_driverlet[name].assign(pkg.templates.begin(), pkg.templates.end());

  for (const std::string& dname : next->load_order) {
    const std::deque<InteractionTemplate>& owned = next->by_driverlet.find(dname)->second;
    std::set<uint16_t>& devs = next->devices[dname];
    for (const InteractionTemplate& t : owned) {
      devs.insert(t.primary_device);
      CollectDevices(t.events, &devs);

      auto [it, inserted] = next->index.try_emplace(std::make_pair(dname, t.entry));
      EntrySlot& slot = it->second;
      if (inserted) {
        slot.driverlet = dname;
        slot.entry = t.entry;
        next->by_entry[t.entry].push_back(&slot);
      }
      Candidate c;
      c.tpl = &t;
      c.scalar_params = t.ScalarParams();  // precompiled: never rebuilt per invoke
      slot.candidates.push_back(std::move(c));
    }
  }

  // Publish. Readers that pinned the old population keep using it; it stays
  // alive in |epochs_|.
  pop_.store(next.get(), std::memory_order_release);
  epochs_.push_back(std::move(next));
  return Status::kOk;
}

bool TemplateStore::HasDriverlet(std::string_view driverlet) const {
  const Population* pop = population();
  return pop != nullptr && pop->by_driverlet.find(driverlet) != pop->by_driverlet.end();
}

size_t TemplateStore::package_count() const {
  const Population* pop = population();
  return pop == nullptr ? 0 : pop->by_driverlet.size();
}

size_t TemplateStore::template_count() const {
  const Population* pop = population();
  if (pop == nullptr) {
    return 0;
  }
  size_t n = 0;
  for (const auto& [name, templates] : pop->by_driverlet) {
    n += templates.size();
  }
  return n;
}

std::vector<std::string> TemplateStore::driverlets() const {
  const Population* pop = population();
  return pop == nullptr ? std::vector<std::string>{} : pop->load_order;
}

std::vector<const InteractionTemplate*> TemplateStore::templates() const {
  std::vector<const InteractionTemplate*> out;
  const Population* pop = population();
  if (pop == nullptr) {
    return out;
  }
  for (const std::string& name : pop->load_order) {
    auto it = pop->by_driverlet.find(name);
    for (const InteractionTemplate& t : it->second) {
      out.push_back(&t);
    }
  }
  return out;
}

std::vector<const InteractionTemplate*> TemplateStore::templates(
    std::string_view driverlet) const {
  std::vector<const InteractionTemplate*> out;
  const Population* pop = population();
  if (pop == nullptr) {
    return out;
  }
  auto it = pop->by_driverlet.find(driverlet);
  if (it == pop->by_driverlet.end()) {
    return out;
  }
  for (const InteractionTemplate& t : it->second) {
    out.push_back(&t);
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

std::vector<uint16_t> TemplateStore::DevicesOf(std::string_view driverlet) const {
  const Population* pop = population();
  if (pop == nullptr) {
    return {};
  }
  auto it = pop->devices.find(driverlet);
  if (it == pop->devices.end()) {
    return {};
  }
  return std::vector<uint16_t>(it->second.begin(), it->second.end());
}

const TemplateStore::EntrySlot* TemplateStore::FindSlot(const Population& pop,
                                                        std::string_view driverlet,
                                                        std::string_view entry) {
  // index is keyed by std::pair<std::string, std::string>; avoid constructing
  // the pair key for the common scoped lookup via the secondary index.
  auto it = pop.by_entry.find(entry);
  if (it == pop.by_entry.end()) {
    return nullptr;
  }
  for (const EntrySlot* slot : it->second) {
    if (slot->driverlet == driverlet) {
      return slot;
    }
  }
  return nullptr;
}

Result<const InteractionTemplate*> TemplateStore::Select(
    std::string_view driverlet, std::string_view entry, const Bindings& scalars,
    std::vector<const InteractionTemplate*>* rejected) const {
  const Population* pop = population();
  if (pop == nullptr) {
    return Status::kNoTemplate;
  }
  const EntrySlot* single = nullptr;
  const std::vector<const EntrySlot*>* many = nullptr;
  if (!driverlet.empty()) {
    single = FindSlot(*pop, driverlet, entry);
    if (single == nullptr) {
      return Status::kNoTemplate;
    }
  } else {
    auto it = pop->by_entry.find(entry);
    if (it == pop->by_entry.end() || it->second.empty()) {
      return Status::kNoTemplate;
    }
    many = &it->second;
  }

  const InteractionTemplate* selected = nullptr;
  uint64_t scanned = 0;
  size_t slot_count = single != nullptr ? 1 : many->size();
  for (size_t si = 0; si < slot_count; ++si) {
    const EntrySlot* slot = single != nullptr ? single : (*many)[si];
    for (const Candidate& c : slot->candidates) {
      ++scanned;
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
  }
  candidates_scanned_.fetch_add(scanned, std::memory_order_relaxed);
  if (selected == nullptr) {
    return Status::kNoTemplate;
  }
  return selected;
}

}  // namespace dlt
