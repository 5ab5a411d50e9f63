// Tier-1 tests for the coverage-guided boundary fuzzer (src/check/fuzz.h):
// program codec fixpoint, the checked-in tests/corpus/ entries replaying
// clean, deterministic execution, coverage growth under mutation, the planted
// ring wrap-around regression guard with ddmin shrinking, a fixed program
// that drives a session into quarantine, and the .repro artifact round-trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/check/fuzz.h"

namespace dlt {
namespace {

std::string ReadFileText(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(BoundaryFuzzTest, ProgramCodecIsAFixpoint) {
  for (const BoundaryProgram& p : BuiltinBoundaryCorpus()) {
    const std::string text = BoundaryProgramToString(p);
    Result<BoundaryProgram> back = ParseBoundaryProgram(text);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back->actions.size(), p.actions.size());
    EXPECT_EQ(BoundaryProgramToString(*back), text);
  }
}

TEST(BoundaryFuzzTest, ParserSkipsCommentsAndDefaultsMissingOperands) {
  Result<BoundaryProgram> p = ParseBoundaryProgram(
      "driverlet-boundary v1\n"
      "# comment line\n"
      "open 2\n"
      "invoke\n"
      "pop 0 0 0\n");
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p->actions.size(), 3u);
  EXPECT_EQ(p->actions[0].op, BoundaryOp::kOpen);
  EXPECT_EQ(p->actions[0].a, 2u);
  EXPECT_EQ(p->actions[1].op, BoundaryOp::kInvoke);
  EXPECT_EQ(p->actions[1].a, 0u);
  EXPECT_EQ(p->actions[2].op, BoundaryOp::kRingPop);
}

TEST(BoundaryFuzzTest, ParserRejectsBadHeaderOpAndOperand) {
  EXPECT_FALSE(ParseBoundaryProgram("boundary v2\nopen 0\n").ok());
  EXPECT_FALSE(ParseBoundaryProgram("driverlet-boundary v1\nfrobnicate 0\n").ok());
  EXPECT_FALSE(ParseBoundaryProgram("driverlet-boundary v1\nopen zero\n").ok());
}

// Operands share the checked text parser: an operand past 2^64 - 1 is
// corrupt instead of wrapping, and 0x-prefixed hex is accepted.
TEST(BoundaryFuzzTest, ParserRejectsOverflowingOperand) {
  Result<BoundaryProgram> big =
      ParseBoundaryProgram("driverlet-boundary v1\ninvoke 0 0 123456789012345678901\n");
  EXPECT_EQ(big.status(), Status::kCorrupt);
  Result<BoundaryProgram> hex =
      ParseBoundaryProgram("driverlet-boundary v1\ninvoke 0x1 0 0xffffffffffffffff\n");
  ASSERT_TRUE(hex.ok());
  EXPECT_EQ(hex->actions[0].a, 1u);
  EXPECT_EQ(hex->actions[0].c, UINT64_MAX);
}

// ---------------------------------------------------------------------------
// Corpus replay — every checked-in tests/corpus/*.boundary entry holds all
// seven invariants (the fuzzer's regression suite).
// ---------------------------------------------------------------------------

TEST(BoundaryFuzzTest, CheckedInCorpusReplaysClean) {
  const std::filesystem::path dir =
      std::filesystem::path(DLT_SOURCE_DIR) / "tests" / "corpus";
  int seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".boundary") {
      continue;
    }
    SCOPED_TRACE(entry.path().filename().string());
    Result<BoundaryProgram> p = ParseBoundaryProgram(ReadFileText(entry.path()));
    ASSERT_TRUE(p.ok());
    ASSERT_FALSE(p->actions.empty());
    BoundaryRunResult r = RunBoundaryProgram(*p);
    EXPECT_TRUE(r.ok()) << r.invariant << ": " << r.detail;
    EXPECT_EQ(r.actions_run, p->actions.size());
    EXPECT_FALSE(r.features.empty());
    ++seen;
  }
  EXPECT_GE(seen, 5);  // one lifecycle entry per registered driverlet class
}

TEST(BoundaryFuzzTest, BuiltinCorpusReplaysCleanAndDeterministically) {
  for (const BoundaryProgram& p : BuiltinBoundaryCorpus()) {
    BoundaryRunResult a = RunBoundaryProgram(p);
    BoundaryRunResult b = RunBoundaryProgram(p);
    EXPECT_TRUE(a.ok()) << a.invariant << ": " << a.detail;
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.features, b.features);
  }
}

// The quarantine path under the fuzzer's own policy (threshold 1). The
// built-in corpus and a 4800-mutant campaign never quarantine a session, so
// this fixed program does: an MMIO fault plan on usb (plan seed 55) makes the
// second invoke abort, and the session must then refuse invokes and ring
// pushes while every invariant holds. It stays out of the built-in corpus,
// which seeds every campaign.
TEST(BoundaryFuzzTest, QuarantineProgramHoldsEveryInvariant) {
  Result<BoundaryProgram> p = ParseBoundaryProgram(
      "driverlet-boundary v1\n"
      "open 1\n"
      "fault 0 1 54\n"
      "invoke 0 0 7\n"
      "invoke 0 0 7\n"
      "invoke 0 0 7\n"
      "push 0 0 7\n"
      "doorbell 0\n"
      "attest 0 0 1\n");
  ASSERT_TRUE(p.ok());
  BoundaryRunResult a = RunBoundaryProgram(*p);
  EXPECT_TRUE(a.ok()) << a.invariant << ": " << a.detail;
  EXPECT_EQ(a.actions_run, p->actions.size());
  EXPECT_NE(a.trace.find("3 invoke aborted\n"), std::string::npos) << a.trace;
  EXPECT_NE(a.trace.find("4 invoke quarantined\n"), std::string::npos) << a.trace;
  EXPECT_NE(a.trace.find("5 push quarantined\n"), std::string::npos) << a.trace;
  EXPECT_NE(a.trace.find("6 doorbell n=0\n"), std::string::npos) << a.trace;
  EXPECT_NE(a.trace.find("mismatches=1 quarantined=1"), std::string::npos) << a.trace;
  EXPECT_NE(a.trace.find("end quarantined_total=1 "), std::string::npos) << a.trace;
  BoundaryRunResult b = RunBoundaryProgram(*p);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.features, b.features);
}

TEST(BoundaryFuzzTest, RegisterOpParsesAndReplaysDeterministically) {
  // The package-registration op: every mutation class runs clean under the
  // per-op status contract and the register-atomic invariant, and the trace
  // is bit-stable across runs. The second operand picks nothing (there is one
  // wire format), so "register 0 1 0" is the intact seal again.
  Result<BoundaryProgram> p = ParseBoundaryProgram(
      "driverlet-boundary v1\n"
      "open 0\n"
      "register 0 0 0\n"   // intact seal
      "register 0 1 0\n"   // intact seal, re-registered
      "register 1 0 1\n"   // post-seal bit flips
      "register 5 0 5\n"
      "register 2 0 2\n"   // truncations
      "register 6 0 6\n"
      "register 3 0 3\n"   // payload mutated pre-seal, re-signed
      "register 7 0 7\n"
      "invoke 0 0 7\n"
      "close 0\n");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->actions[1].op, BoundaryOp::kRegisterPackage);
  const std::string text = BoundaryProgramToString(*p);
  Result<BoundaryProgram> back = ParseBoundaryProgram(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(BoundaryProgramToString(*back), text);

  BoundaryRunResult a = RunBoundaryProgram(*p);
  BoundaryRunResult b = RunBoundaryProgram(*p);
  EXPECT_TRUE(a.ok()) << a.invariant << ": " << a.detail;
  EXPECT_EQ(a.actions_run, p->actions.size());
  EXPECT_EQ(a.trace, b.trace);
  // The mutated classes must actually reach the reject paths: at least one
  // register line in the trace reports kCorrupt.
  EXPECT_NE(a.trace.find("register"), std::string::npos);
  EXPECT_NE(a.trace.find("corrupt"), std::string::npos) << a.trace;
}

// ---------------------------------------------------------------------------
// The fuzz loop
// ---------------------------------------------------------------------------

TEST(BoundaryFuzzTest, CoverageGrowsMonotonicallyWithNoCleanViolations) {
  BoundaryFuzzConfig cfg;
  cfg.seed = 11;
  cfg.iterations = 40;
  BoundaryFuzzStats stats = RunBoundaryFuzz(cfg);
  EXPECT_EQ(stats.runs, 40);
  EXPECT_TRUE(stats.findings.empty())
      << "clean campaign violated " << stats.findings.front().invariant << ": "
      << stats.findings.front().detail;
  ASSERT_GE(stats.coverage_curve.size(), 2u);
  for (size_t i = 1; i < stats.coverage_curve.size(); ++i) {
    EXPECT_GE(stats.coverage_curve[i], stats.coverage_curve[i - 1]);
  }
  // Mutation must discover features the seed corpus alone does not light.
  EXPECT_GT(stats.coverage_curve.back(), stats.coverage_curve.front());
  EXPECT_EQ(stats.features, stats.coverage_curve.back());
  EXPECT_GE(stats.corpus_size, BuiltinBoundaryCorpus().size());
}

TEST(BoundaryFuzzTest, FuzzCampaignIsDeterministic) {
  BoundaryFuzzConfig cfg;
  cfg.seed = 23;
  cfg.iterations = 24;
  BoundaryFuzzStats a = RunBoundaryFuzz(cfg);
  BoundaryFuzzStats b = RunBoundaryFuzz(cfg);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
  EXPECT_EQ(a.features, b.features);
  EXPECT_EQ(a.coverage_curve, b.coverage_curve);
  EXPECT_EQ(a.findings.size(), b.findings.size());
}

// The regression guard: with the ring wrap-around reap bug planted, the
// fuzzer must find the ring-order violation and shrink it to a handful of
// actions — this is what keeps the fuzzer honest.
TEST(BoundaryFuzzTest, PlantedRingWrapBugIsFoundAndShrunk) {
  BoundaryFuzzConfig cfg;
  cfg.seed = 5;
  cfg.iterations = 8;
  cfg.max_findings = 1;
  cfg.plant_ring_quirk = true;
  BoundaryFuzzStats stats = RunBoundaryFuzz(cfg);
  ASSERT_EQ(stats.findings.size(), 1u);
  const BoundaryFinding& f = stats.findings.front();
  EXPECT_EQ(f.invariant, "ring-order");
  EXPECT_GT(f.shrink_steps, 0);
  EXPECT_LE(f.shrunk.actions.size(), f.program.actions.size());
  EXPECT_LE(f.shrunk.actions.size(), 16u);

  // The shrunk program still reproduces with the bug planted and is clean
  // without it (the repro goes green once the bug is fixed).
  EXPECT_EQ(RunBoundaryProgram(f.shrunk, /*plant_ring_quirk=*/true).invariant, "ring-order");
  EXPECT_TRUE(RunBoundaryProgram(f.shrunk).ok());
}

TEST(BoundaryFuzzTest, ShrinkRejectsNonViolatingPrograms) {
  Result<BoundaryShrinkResult> r =
      ShrinkBoundary(BuiltinBoundaryCorpus().front(), "ring-order");
  EXPECT_EQ(r.status(), Status::kInvalidArg);
}

// ---------------------------------------------------------------------------
// Repro artifacts
// ---------------------------------------------------------------------------

TEST(BoundaryFuzzTest, ReproRoundTripsThroughDisk) {
  const BoundaryProgram p = BuiltinBoundaryCorpus().front();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "dlt_boundary_roundtrip.repro";
  ASSERT_EQ(WriteBoundaryRepro(path.string(), p, "ring-order", "unit test detail"),
            Status::kOk);
  Result<BoundaryRepro> back = ReadBoundaryRepro(path.string());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->invariant, "ring-order");
  EXPECT_EQ(back->detail, "unit test detail");
  EXPECT_EQ(BoundaryProgramToString(back->program), BoundaryProgramToString(p));
  std::remove(path.string().c_str());

  EXPECT_FALSE(ReadBoundaryRepro("/nonexistent/boundary.repro").ok());
  EXPECT_FALSE(ParseBoundaryRepro("driverlet-boundary-repro v2\n").ok());
}

}  // namespace
}  // namespace dlt
