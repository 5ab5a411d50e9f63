// Coverage-guided boundary fuzzer for the replay service (docs/fuzzing.md).
//
// The unit of fuzzing is a *boundary program*: a serialized list of actions a
// normal-world client can take against the TEE service boundary — session
// open/close interleavings, direct invokes, ring push / doorbell / reap
// orderings, fault-plane arming, attestation requests, and mutated
// sealed-package bytes fed through RegisterDriverlet. Each run executes one
// program against a fresh deployment (Rpi3Testbed + ReplayService hosting the
// sealed package of every registered driverlet class — see
// RegisteredDriverletClasses() in src/workload/deploy_util.h) and asserts the
// boundary invariants that must hold for EVERY program, not just the recorded
// ones:
//
//   allowed-status     every API call returns a status from its contract
//                      (kBadState / kCorrupt never escape the boundary;
//                      kRegisterPackage alone may see kCorrupt and
//                      kPermissionDenied — rejecting tampered bytes and
//                      unmapped devices IS its contract)
//   register-atomic    a failed RegisterDriverlet leaves the template store
//                      exactly as it was: no partially parsed driverlet, no
//                      template-count drift, prior registrations intact
//   ring-order         reaped completion seqs are strictly increasing
//   ring-accounting    pushed >= drained >= reaped, all three monotonic
//   quarantine-sticky  a quarantined session stays quarantined until closed
//   integrity          fault-free programs never record a measurement
//                      mismatch (src/core/integrity.h)
//   attest             every quote verifies and round-trips byte-identically
//   determinism        a program added to the corpus replays to an identical
//                      observable trace
//
// The coverage signal is the telemetry registry (src/obs/metrics.h): every
// counter's value and every histogram's sample count, bucketed by log2. A
// mutant that lights a new (metric, log2 bucket) feature joins the corpus.
// Violations are shrunk with the same ddmin idiom as the conformance harness
// (src/check/conformance.h) and written as small text .repro files that
// `driverletc fuzz --repro <file>` re-executes.
#ifndef SRC_CHECK_FUZZ_H_
#define SRC_CHECK_FUZZ_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/soc/status.h"

namespace dlt {

// One action at the service boundary. Operands are interpreted modulo the
// harness's small tables (4 session slots, the registered-class table, 4
// entry variants), so every uint64 triple is a valid program — mutation never
// has to repair anything.
enum class BoundaryOp : uint8_t {
  kOpen = 0,     // a: index into RegisteredDriverletClasses()
  kClose,        // a: session slot
  kInvoke,       // a: slot, b: entry variant, c: argument seed
  kRingPush,     // a: slot, b: entry variant, c: argument seed
  kDoorbell,     // a: slot
  kRingPop,      // a: slot
  kAttest,       // a: slot, c: nonce seed
  kFaultArm,     // a: plane, b: target driverlet class, c: plan seed
  kFaultDisarm,  // no operands
  // Feeds deterministically mutated sealed-package bytes through
  // RegisterDriverlet under the reserved driverlet name "fzz" (no kOpen path
  // can reach it, so registration outcomes never perturb session behaviour).
  // a: mutation salt, b: unused (there is one wire format),
  // c: mutation class (c%4: 0 intact seal, 1 post-seal bit flips,
  //    2 truncation, 3 payload mutated pre-seal and re-signed) + seed.
  kRegisterPackage,
};

struct BoundaryAction {
  BoundaryOp op = BoundaryOp::kOpen;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
};

struct BoundaryProgram {
  std::vector<BoundaryAction> actions;
};

// Text codec ("driverlet-boundary v1" header, one action per line) — the
// format of corpus entries under tests/corpus/ and the program section of
// repro files. ToString(Parse(s)) is a fixpoint.
std::string BoundaryProgramToString(const BoundaryProgram& p);
Result<BoundaryProgram> ParseBoundaryProgram(std::string_view text);

// Outcome of executing one boundary program on a fresh deployment.
struct BoundaryRunResult {
  std::string invariant;  // violated invariant name; empty when all held
  std::string detail;     // human-readable violation description
  std::string trace;      // canonical observable trace (determinism oracle)
  std::set<uint64_t> features;  // coverage features this run lit
  size_t actions_run = 0;

  bool ok() const { return invariant.empty(); }
};

// Executes |p| against a fresh testbed + service and checks every boundary
// invariant. Deterministic: equal programs produce equal results.
// |plant_ring_quirk|: see BoundaryFuzzConfig.
BoundaryRunResult RunBoundaryProgram(const BoundaryProgram& p, bool plant_ring_quirk = false);

// Built-in seed corpus: one regression entry per driverlet class exercising
// the open → invoke → ring cycle → attest → close lifecycle.
std::vector<BoundaryProgram> BuiltinBoundaryCorpus();

struct BoundaryShrinkResult {
  BoundaryProgram reduced;
  int steps = 0;
  size_t original_actions = 0;
};

// ddmin over the action list: removes chunks while |p| keeps violating
// |invariant|. kInvalidArg when |p| does not violate it.
Result<BoundaryShrinkResult> ShrinkBoundary(const BoundaryProgram& p,
                                            const std::string& invariant,
                                            bool plant_ring_quirk = false);

// Repro artifacts ("driverlet-boundary-repro v1"): invariant + detail + the
// embedded program text.
struct BoundaryRepro {
  BoundaryProgram program;
  std::string invariant;
  std::string detail;
};

std::string BoundaryReproToString(const BoundaryProgram& p, const std::string& invariant,
                                  const std::string& detail);
Result<BoundaryRepro> ParseBoundaryRepro(std::string_view text);
Status WriteBoundaryRepro(const std::string& path, const BoundaryProgram& p,
                          const std::string& invariant, const std::string& detail);
Result<BoundaryRepro> ReadBoundaryRepro(const std::string& path);

struct BoundaryFinding {
  std::string invariant;
  std::string detail;
  BoundaryProgram program;   // the mutant that tripped the invariant
  BoundaryProgram shrunk;    // ddmin-minimized reproducer
  int shrink_steps = 0;
  std::string repro_path;    // written artifact (empty when repro_dir unset)
};

struct BoundaryFuzzConfig {
  uint64_t seed = 1;
  // Budget: exactly |iterations| mutants when > 0 (deterministic, the bench
  // mode), else |seconds| of wall clock (the CLI mode).
  int iterations = 0;
  double seconds = 5.0;
  size_t max_actions = 48;        // programs are truncated to this length
  int max_findings = 4;           // stop fuzzing after this many findings
  // Plants a ring wrap-around reap bug for the whole campaign (the pop step
  // misreports seqs once a ring has wrapped): the regression guard that proves
  // the fuzzer can still find and shrink a real ordering violation.
  bool plant_ring_quirk = false;
  std::string repro_dir;          // write shrunk .repro files here if set
  std::vector<BoundaryProgram> extra_corpus;  // e.g. tests/corpus/ entries
};

struct BoundaryFuzzStats {
  int runs = 0;                   // mutants executed (corpus seeding excluded)
  size_t corpus_size = 0;
  size_t features = 0;            // distinct coverage features at the end
  // |features| after seeding and then after every 16 mutant runs — the
  // monotone coverage curve BENCH_fuzz.json reports.
  std::vector<size_t> coverage_curve;
  std::vector<BoundaryFinding> findings;
};

// The fuzz loop: seeds the corpus (built-ins + extra_corpus), then mutates,
// runs, keeps feature-novel programs (after a determinism re-run) and shrinks
// every violation.
BoundaryFuzzStats RunBoundaryFuzz(const BoundaryFuzzConfig& cfg);

}  // namespace dlt

#endif  // SRC_CHECK_FUZZ_H_
