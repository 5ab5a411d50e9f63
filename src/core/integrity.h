// Runtime integrity measurement for replay (ROADMAP item 3, PDRIMA-style):
// every invoke folds the events it actually executed into a SHA-256 hash
// chain, and the chain of a clean run is — by construction — computable
// statically from the template alone (GoldenMeasurement). Comparing the two
// tells a verifier not just *that* an invoke failed but exactly how much of
// the golden trace executed before it stopped.
//
// The executor folds one descriptor per completed *top-level* template event,
// in template order. The descriptor covers only the fields that are static
// template structure (kind, index, device, register offset, irq line,
// bind/buffer names) — never runtime values — so every run of one template
// produces the same chain, and a run that diverges mid-template folds a strict
// prefix of it. Poll bodies are excluded: their iteration count is device
// timing, not template structure, and the poll event itself is folded once on
// success.
#ifndef SRC_CORE_INTEGRITY_H_
#define SRC_CORE_INTEGRITY_H_

#include <string>

#include "src/core/event.h"
#include "src/core/interaction_template.h"
#include "src/crypto/sha256.h"

namespace dlt {

// Domain separator folded into every chain's initial value.
inline constexpr const char kIntegritySeed[] = "dlt-integrity-v1";

class IntegrityChain {
 public:
  IntegrityChain();

  // Folds the template identity (name, entry, top-level event count) into the
  // chain. Call once, before any FoldEvent.
  void Begin(const InteractionTemplate& tpl);

  // Extends the chain with the structural descriptor of one completed
  // top-level event: value = SHA256(value || descriptor).
  void FoldEvent(const TemplateEvent& e, size_t index);

  // Generic PCR-style extend (session chains over per-invoke measurements).
  void Extend(const Sha256::Digest& d);

  const Sha256::Digest& digest() const { return value_; }
  std::string Hex() const { return Sha256::HexDigest(value_); }
  size_t folded() const { return folded_; }

 private:
  Sha256::Digest value_;
  size_t folded_ = 0;
};

// The chain a complete, divergence-free execution of |tpl| produces: Begin +
// FoldEvent over every top-level event in order.
Sha256::Digest GoldenMeasurement(const InteractionTemplate& tpl);
std::string GoldenMeasurementHex(const InteractionTemplate& tpl);

// What one Invoke measured, surfaced by Replayer::last_measurement() for the
// service's attestation/quarantine policy (failed invokes return a bare
// Status, so the record cannot ride on ReplayStats alone). The digest encodes
// which template ran and how many of its top-level events completed, so a
// mismatch means "reached the executor and failed", nothing more.
struct MeasurementRecord {
  bool valid = false;
  std::string template_name;
  size_t events_measured = 0;     // top-level events folded on the final attempt
  Sha256::Digest digest{};        // final-attempt chain value
  bool matches_golden = false;    // final attempt completed: digest == golden
  std::string Hex() const { return Sha256::HexDigest(digest); }
};

}  // namespace dlt

#endif  // SRC_CORE_INTEGRITY_H_
