// Property-based conformance runner over generated templates (the tentpole of
// docs/conformance.md). For a GeneratedCase it asserts a pluggable invariant
// set — replay determinism across fresh harnesses and repeated invokes,
// serializer round-trip + re-replay identity, indexed ≡ linear TemplateStore
// selection, the generator's expected output, byte-identical repeats under
// each seeded {mmio, dma, irq} fault plane, and golden/strict-prefix integrity
// measurements. Failing cases are shrunk (event-list bisection + operand
// simplification) to a minimal template and written to a repro file that
// `driverletc check --repro <file>` replays.
#ifndef SRC_CHECK_CONFORMANCE_H_
#define SRC_CHECK_CONFORMANCE_H_

#include <string>
#include <vector>

#include "src/check/gen_device.h"
#include "src/check/template_gen.h"
#include "src/soc/machine.h"
#include "src/tee/secure_world.h"

namespace dlt {

// Signing key for generated packages (pre-parsed loads don't verify it, but
// the repro tool seals with it so sealed artifacts stay openable).
inline constexpr const char kGenSigningKey[] = "driverlet-developer-key-v1";

// Machine + GenDevice + SecureWorld wired like Rpi3Testbed's secure-IO path:
// GenDevice attached after the built-in DMA engine, both TZASC-assigned to the
// secure world and mapped into the TEE.
struct GenHarness {
  Machine machine;
  GenDevice dev;
  SecureWorld tee;
  uint16_t gen_id = 0;

  GenHarness();
};

struct ConformanceFailure {
  std::string invariant;
  std::string detail;
};

struct ConformanceOutcome {
  std::vector<ConformanceFailure> failures;
  int invariants_run = 0;
  // Clean-run accounting (filled when the "baseline" invariant runs).
  uint64_t events_executed = 0;
  uint64_t end_us = 0;

  bool ok() const { return failures.empty(); }
};

// Invariant names, in the order RunConformance evaluates them. The
// self-relative invariants (determinism first) precede "baseline" so a shrink
// anchors on an invariant that stays meaningful for event subsets.
std::vector<std::string> AllInvariants();
// AllInvariants minus "baseline": repro files don't carry expected output
// bytes, so re-executed repros check every self-relative invariant instead.
std::vector<std::string> ReproInvariants();

// Runs the named invariants (every name must come from AllInvariants) against
// one generated case, collecting all failures rather than stopping at the
// first.
ConformanceOutcome RunConformance(const GeneratedCase& g,
                                  const std::vector<std::string>& invariants);
ConformanceOutcome RunConformance(const GeneratedCase& g);  // all invariants

struct ShrinkResult {
  GeneratedCase reduced;
  std::string invariant;      // the invariant the minimal case still fails
  int steps = 0;              // candidate executions the shrinker tried
  size_t original_events = 0;
};

// Minimizes a failing case: ddmin-style event-list bisection, then operand
// simplification, each candidate required to (a) keep every referenced symbol
// bound and (b) still fail the same invariant. kInvalidArg when |g| passes.
Result<ShrinkResult> Shrink(const GeneratedCase& g,
                            const std::vector<std::string>& invariants);

// Repro files: a small text artifact carrying the template, the GenDevice
// script and the invoke inputs — everything needed to re-execute the failure.
struct Repro {
  GeneratedCase c;  // expected_out left empty (see ReproInvariants)
  std::string invariant;
};

std::string ReproToString(const GeneratedCase& g, const std::string& invariant);
Result<Repro> ParseRepro(std::string_view text);
Status WriteRepro(const std::string& path, const GeneratedCase& g,
                  const std::string& invariant);
Result<Repro> ReadRepro(const std::string& path);

// True when every symbol an event expression references is bound earlier
// (scalar param or a preceding bind) — the shrinker's candidate filter,
// exposed for tests.
bool SymbolClosureValid(const InteractionTemplate& tpl);

}  // namespace dlt

#endif  // SRC_CHECK_CONFORMANCE_H_
