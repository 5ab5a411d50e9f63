// TemplateStore: the template population behind the replay pipeline.
// Holds interaction templates from *multiple* loaded driverlet packages keyed
// by (driverlet, entry); loading a second package never evicts the first (the
// old Replayer::LoadPackage overwrite semantics are gone). Selection resolves
// an entry to its slot and scans only that slot's candidates in load order —
// cost is independent of how many other packages/entries are loaded. A slot
// holds the handful of templates one entry was recorded into (MMC and USB
// record the most, 10 each), so the scan is the paper's replayer picking "the
// one template whose initial constraints match" (§5).
//
// Packages load one way (docs/template_store.md): AddPackage verifies,
// decompresses and parses a sealed package (or takes an already parsed one)
// and deep-copies its templates into the population.
//
// Concurrency model (the multi-shard replay fleet, docs/replay_fleet.md):
// the post-registration state — packages, the (driverlet, entry) index, the
// precompiled candidate param lists — is an immutable Population published
// RCU-style: AddPackage builds a fresh Population and swaps one atomic
// pointer; readers load the pointer once per call and never take a lock.
// Retired populations are kept alive for the store's lifetime (registration
// is rare), so template pointers handed out by Select never dangle even
// across a concurrent package reload. A fleet hands one store to every
// shard's ReplayService; the selection counter is a shared atomic.
#ifndef SRC_CORE_TEMPLATE_STORE_H_
#define SRC_CORE_TEMPLATE_STORE_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/core/interaction_template.h"
#include "src/core/package.h"

namespace dlt {

class TemplateStore {
 public:
  // One selectable template plus everything precompiled about it at load time.
  struct Candidate {
    const InteractionTemplate* tpl = nullptr;
    // Scalar params the initial constraints bind, in declaration order. A
    // candidate whose params are not all present in the invoke args is skipped
    // (it cannot match), never an argument error — other same-entry templates
    // with a different param set remain eligible.
    std::vector<std::string> scalar_params;
  };

  TemplateStore() = default;
  TemplateStore(const TemplateStore&) = delete;
  TemplateStore& operator=(const TemplateStore&) = delete;

  // Verifies, decompresses and parses a sealed package, then adds it.
  Status AddPackage(const uint8_t* data, size_t len, std::string_view signing_key);
  // Adds (or, for an already-loaded driverlet, atomically replaces) one
  // driverlet's templates. Replacement is per-driverlet only: other loaded
  // packages are untouched. Publishes a new population snapshot; concurrent
  // readers keep using the one they pinned at call entry.
  Status AddPackage(const DriverletPackage& pkg);

  bool HasDriverlet(std::string_view driverlet) const;
  size_t package_count() const;
  size_t template_count() const;
  std::vector<std::string> driverlets() const;

  // All templates in load order, optionally restricted to one driverlet.
  std::vector<const InteractionTemplate*> templates() const;
  std::vector<const InteractionTemplate*> templates(std::string_view driverlet) const;

  // Device ids referenced by a driverlet's templates (primary reset devices
  // plus every register-touching event) — the service's admission check.
  std::vector<uint16_t> DevicesOf(std::string_view driverlet) const;
  // Same, computed from a not-yet-loaded package (admission before load).
  static std::vector<uint16_t> PackageDevices(const DriverletPackage& pkg);

  // Selects the template registered under (driverlet, entry) whose initial
  // constraints accept |scalars|: one scan of the slot's candidates in load
  // order, first match wins (a second match logs an ambiguity warning). An
  // empty |driverlet| scans every package's slot for the entry, in load
  // order. kNoTemplate when nothing covers the input. When |rejected| is
  // non-null, candidates whose constraints evaluated false are appended
  // (telemetry); param-set mismatches are not reported there.
  Result<const InteractionTemplate*> Select(
      std::string_view driverlet, std::string_view entry, const Bindings& scalars,
      std::vector<const InteractionTemplate*>* rejected = nullptr) const;

  // Cumulative number of candidates examined by Select — the mixed-traffic
  // bench divides this by invokes to show selection cost stays flat as the
  // template population grows. Aggregated across every thread selecting.
  uint64_t candidates_scanned() const {
    return candidates_scanned_.load(std::memory_order_relaxed);
  }

  // The store caches neither selections nor programs; these always return
  // zero. Their only reader is perfbench/workloads.cc:91-94 (the repo
  // benchmark's core.store.*_cache_hit_ratio lines), kept building as is.
  uint64_t select_cache_hits() const { return 0; }
  uint64_t select_cache_misses() const { return 0; }
  uint64_t compile_cache_hits() const { return 0; }
  uint64_t compile_cache_misses() const { return 0; }

 private:
  struct EntrySlot {
    std::string driverlet;
    std::string entry;
    std::vector<Candidate> candidates;
  };

  // The frozen post-registration state. Built once per AddPackage, published
  // via one atomic pointer swap, never mutated afterwards. Slot and template
  // addresses are stable for the population's lifetime (node-based maps and
  // deques), and populations live as long as the store does.
  struct Population {
    // Owning storage; deque gives stable template addresses.
    std::map<std::string, std::deque<InteractionTemplate>, std::less<>> by_driverlet;
    // Primary index, keyed (driverlet, entry).
    std::map<std::pair<std::string, std::string>, EntrySlot> index;
    // Secondary index for driverlet-agnostic lookup: entry → slots, load order.
    std::map<std::string, std::vector<const EntrySlot*>, std::less<>> by_entry;
    // Devices each driverlet's templates touch, collected at load time.
    std::map<std::string, std::set<uint16_t>, std::less<>> devices;
    std::vector<std::string> load_order;
  };

  const Population* population() const { return pop_.load(std::memory_order_acquire); }
  static const EntrySlot* FindSlot(const Population& pop, std::string_view driverlet,
                                   std::string_view entry);

  std::mutex swap_mu_;  // serializes AddPackage writers
  // RCU publish pointer; readers load it once per call, lock-free.
  std::atomic<const Population*> pop_{nullptr};
  // Every population ever published, newest last. Retired snapshots are kept
  // alive so template pointers pinned by readers never dangle. Registration
  // is rare — this grows by one small snapshot per AddPackage call.
  std::vector<std::unique_ptr<const Population>> epochs_;
  mutable std::atomic<uint64_t> candidates_scanned_{0};
};

}  // namespace dlt

#endif  // SRC_CORE_TEMPLATE_STORE_H_
