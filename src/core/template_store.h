// TemplateStore: the templates one ReplayService (or one standalone Replayer)
// selects from, a map from driverlet to its templates and per-entry candidate
// slots. Selection resolves the invoked (driverlet, entry) slot and scans only
// that slot's candidates in load order — cost is independent of how many other
// packages/entries are loaded. A slot holds the handful of templates one entry
// was recorded into (MMC and USB record the most, 10 each), so the scan is the
// paper's replayer picking "the one template whose initial constraints match"
// (§5).
//
// The store is single-threaded and has one owner. Packages load one way
// (docs/template_store.md): the owner opens a sealed package, and AddPackage
// moves its parsed templates into a complete new entry for that driverlet,
// then replaces only that entry. Pointer contract: a driverlet's template
// pointers (from templates() and Select) stay valid until that driverlet is
// re-registered; registering any other driverlet never moves them.
#ifndef SRC_CORE_TEMPLATE_STORE_H_
#define SRC_CORE_TEMPLATE_STORE_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/interaction_template.h"
#include "src/core/package.h"

namespace dlt {

class TemplateStore {
 public:
  TemplateStore() = default;
  TemplateStore(const TemplateStore&) = delete;
  TemplateStore& operator=(const TemplateStore&) = delete;

  // Adds (or, for an already-loaded driverlet, replaces) one driverlet's
  // templates, moved in from |pkg|; other loaded driverlets are untouched.
  // kInvalidArg for an unnamed package, which changes nothing.
  Status AddPackage(DriverletPackage pkg);

  bool HasDriverlet(std::string_view driverlet) const;
  size_t package_count() const { return driverlets_.size(); }
  size_t template_count() const;

  // One driverlet's templates in package order; empty when it is not loaded.
  std::vector<const InteractionTemplate*> templates(std::string_view driverlet) const;

  // Device ids a package's templates reference (primary reset devices plus
  // every register-touching event) — the service's admission check.
  static std::vector<uint16_t> PackageDevices(const DriverletPackage& pkg);

  // Selects the template registered under (driverlet, entry) whose initial
  // constraints accept |scalars|: one scan of the slot's candidates in load
  // order, first match wins (a second match logs an ambiguity warning).
  // kNoTemplate when nothing covers the input. When |rejected| is non-null,
  // candidates whose constraints evaluated false are appended (telemetry);
  // param-set mismatches are not reported there.
  Result<const InteractionTemplate*> Select(
      std::string_view driverlet, std::string_view entry, const Bindings& scalars,
      std::vector<const InteractionTemplate*>* rejected = nullptr) const;

  // Cumulative number of candidates examined by Select — the mixed-traffic
  // bench divides this by invokes to show selection cost stays flat as the
  // template population grows.
  uint64_t candidates_scanned() const { return candidates_scanned_; }

  // The store caches neither selections nor programs; these always return
  // zero. Their only reader is perfbench/workloads.cc:91-94 (the repo
  // benchmark's core.store.*_cache_hit_ratio lines), kept building as is.
  uint64_t select_cache_hits() const { return 0; }
  uint64_t select_cache_misses() const { return 0; }
  uint64_t compile_cache_hits() const { return 0; }
  uint64_t compile_cache_misses() const { return 0; }

 private:
  // One selectable template plus the scalar params its initial constraints
  // bind, in declaration order, computed once at load. A candidate whose params
  // are not all present in the invoke args is skipped (it cannot match), never
  // an argument error — other same-entry templates with a different param set
  // remain eligible.
  struct Candidate {
    const InteractionTemplate* tpl = nullptr;
    std::vector<std::string> scalar_params;
  };
  // One driverlet's entry. Candidates point into |templates|; moving the entry
  // moves the vector's buffer, so those pointers survive the move.
  struct Driverlet {
    std::vector<InteractionTemplate> templates;
    std::map<std::string, std::vector<Candidate>, std::less<>> slots;  // by entry
  };

  std::map<std::string, Driverlet, std::less<>> driverlets_;
  mutable uint64_t candidates_scanned_ = 0;
};

}  // namespace dlt

#endif  // SRC_CORE_TEMPLATE_STORE_H_
