// Runtime integrity measurement for replay (PDRIMA-style): the measurement of
// an invoke is a SHA-256 hash chain over the template's identity and its
// top-level events, folded in template order up to the last event the final
// attempt completed. Because it depends on nothing but the template and that
// count, the measurement of a clean run is computable statically
// (GoldenMeasurement), and a run that stopped early measures a strict prefix
// of it.
//
// Each event descriptor covers only static template structure (kind, index,
// device, register offset, irq line, bind/buffer names), never runtime
// values. Poll bodies are excluded: their iteration count is device timing,
// not template structure, and the poll event itself counts once on success.
//
// The measurement feeds attestation only: the session PCR the service extends
// with every invoke's measurement, and the quote that carries it. It is not a
// quarantine input; the quarantine ladder reads the invoke's status.
#ifndef SRC_CORE_INTEGRITY_H_
#define SRC_CORE_INTEGRITY_H_

#include <string>

#include "src/core/interaction_template.h"
#include "src/crypto/sha256.h"

namespace dlt {

// SHA256(domain separator): the value every chain starts from, and a session
// PCR's value before its first invoke.
Sha256::Digest IntegritySeed();

// The measurement of a run of |tpl| that completed its first |events|
// top-level events: the seed, extended with the template identity (name,
// entry, top-level event count), then with one structural descriptor per
// completed event, each step value = SHA256(value || data).
Sha256::Digest Measure(const InteractionTemplate& tpl, size_t events);

// PCR extend of a session chain: SHA256(pcr || d).
Sha256::Digest Extend(const Sha256::Digest& pcr, const Sha256::Digest& d);

// The measurement of a complete, divergence-free run of |tpl|.
Sha256::Digest GoldenMeasurement(const InteractionTemplate& tpl);
std::string GoldenMeasurementHex(const InteractionTemplate& tpl);

// What one Invoke measured, surfaced by Replayer::last_measurement() for the
// service's session PCR (failed invokes return a bare Status, so the record
// cannot ride on ReplayStats alone).
struct MeasurementRecord {
  bool valid = false;
  size_t events_measured = 0;  // top-level events the final attempt completed
  Sha256::Digest digest{};     // Measure(template, events_measured)
  std::string Hex() const { return Sha256::HexDigest(digest); }
};

}  // namespace dlt

#endif  // SRC_CORE_INTEGRITY_H_
