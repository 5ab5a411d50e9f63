// Direct unit coverage for the two record-side analyses that previously were
// only exercised indirectly through full campaigns: the differ's transition
// signatures / region validation (src/record/differ.cc) and the input-space
// coverage accounting (src/record/coverage.cc).
#include <gtest/gtest.h>

#include "src/record/coverage.h"
#include "src/record/differ.h"

namespace dlt {
namespace {

TemplateEvent Ev(EventKind kind) {
  TemplateEvent e;
  e.kind = kind;
  return e;
}

TemplateEvent RegWrite(uint16_t device, uint64_t off) {
  TemplateEvent e = Ev(EventKind::kRegWrite);
  e.device = device;
  e.reg_off = off;
  e.value = Expr::Const(1);
  return e;
}

// ---------------------------------------------------------------------------
// TransitionSignature / SameTransitionPath
// ---------------------------------------------------------------------------

TEST(DifferTest, SignatureRendersOutputsAllocsAndIrqWaits) {
  RawRecording raw;
  raw.events.push_back(RegWrite(3, 0x40));
  TemplateEvent alloc = Ev(EventKind::kDmaAlloc);
  alloc.bind = "dma0";
  alloc.value = Expr::Const(512);
  raw.events.push_back(alloc);
  TemplateEvent shm = Ev(EventKind::kShmWrite);
  shm.addr = Expr::Binary(ExprOp::kAdd, Expr::Input("dma0"), Expr::Const(8));
  shm.value = Expr::Const(7);
  raw.events.push_back(shm);
  TemplateEvent irq = Ev(EventKind::kWaitIrq);
  irq.irq_line = 56;
  raw.events.push_back(irq);

  std::string sig = TransitionSignature(raw);
  EXPECT_NE(sig.find("reg_write:3:0x40"), std::string::npos);
  EXPECT_NE(sig.find("dma_alloc:0x200"), std::string::npos);
  EXPECT_NE(sig.find("shm_write:(dma0 + 0x8)"), std::string::npos);
  EXPECT_NE(sig.find("irq:56"), std::string::npos);
}

TEST(DifferTest, PlainInputsAndDelaysDoNotIdentifyThePath) {
  RawRecording with_inputs;
  with_inputs.events.push_back(RegWrite(1, 0x10));
  TemplateEvent read = Ev(EventKind::kRegRead);
  read.device = 1;
  read.reg_off = 0x14;
  read.bind = "v0";
  with_inputs.events.push_back(read);
  with_inputs.events.push_back(Ev(EventKind::kDelay));

  RawRecording outputs_only;
  outputs_only.events.push_back(RegWrite(1, 0x10));

  EXPECT_EQ(TransitionSignature(with_inputs), TransitionSignature(outputs_only));
  EXPECT_TRUE(SameTransitionPath(with_inputs, outputs_only));
}

TEST(DifferTest, DifferentRegisterTargetsDiverge) {
  RawRecording a;
  a.events.push_back(RegWrite(1, 0x10));
  RawRecording b;
  b.events.push_back(RegWrite(1, 0x14));
  RawRecording c;
  c.events.push_back(RegWrite(2, 0x10));
  EXPECT_FALSE(SameTransitionPath(a, b));
  EXPECT_FALSE(SameTransitionPath(a, c));
}

TEST(DifferTest, SymbolicAddressShapeParticipatesInSignature) {
  auto make = [](ExprRef addr) {
    RawRecording r;
    TemplateEvent e = Ev(EventKind::kCopyToDma);
    e.addr = std::move(addr);
    e.buffer = "buf";
    e.buf_offset = Expr::Const(0);
    e.value = Expr::Const(64);
    r.events.push_back(e);
    return r;
  };
  RawRecording base = make(Expr::Input("dma0"));
  RawRecording offset = make(Expr::Binary(ExprOp::kAdd, Expr::Input("dma0"), Expr::Const(16)));
  EXPECT_FALSE(SameTransitionPath(base, offset));
  EXPECT_TRUE(SameTransitionPath(base, make(Expr::Input("dma0"))));
}

// ---------------------------------------------------------------------------
// ValidateTransitionRegion
// ---------------------------------------------------------------------------

// Probe modelling a driver with two paths split at blkcnt <= 8.
Result<std::string> TwoPathProbe(const Bindings& b) {
  auto it = b.find("blkcnt");
  if (it == b.end()) return Status::kInvalidArg;
  return std::string(it->second <= 8 ? "small" : "large");
}

TEST(DifferTest, RegionValidationAcceptsCleanSplit) {
  RegionValidation v = ValidateTransitionRegion(
      TwoPathProbe, {{"blkcnt", 4}}, {{{"blkcnt", 1}}, {{"blkcnt", 8}}},
      {{{"blkcnt", 9}}, {{"blkcnt", 64}}});
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.in_region_total, 2);
  EXPECT_EQ(v.in_region_same, 2);
  EXPECT_EQ(v.out_region_total, 2);
  EXPECT_EQ(v.out_region_diverged, 2);
  EXPECT_TRUE(v.violations.empty());
}

TEST(DifferTest, RegionValidationFlagsBoundaryViolations) {
  // Claimed region reaches one past the real constraint boundary: the probe at
  // blkcnt=9 rides the other path, and an out-region probe at 8 rides ours.
  RegionValidation v = ValidateTransitionRegion(TwoPathProbe, {{"blkcnt", 4}},
                                                {{{"blkcnt", 9}}}, {{{"blkcnt", 8}}});
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.in_region_same, 0);
  EXPECT_EQ(v.out_region_diverged, 0);
  ASSERT_EQ(v.violations.size(), 2u);
  EXPECT_NE(v.violations[0].find("different path"), std::string::npos);
  EXPECT_NE(v.violations[1].find("reproduced the path"), std::string::npos);
}

TEST(DifferTest, RegionValidationCountsRejectedOutProbesAsDiverged) {
  RegionValidation v = ValidateTransitionRegion(TwoPathProbe, {{"blkcnt", 4}}, {},
                                                {{{"wrong_param", 1}}});
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.out_region_diverged, 1);
}

TEST(DifferTest, RegionValidationFailedReferenceRun) {
  RegionValidation v =
      ValidateTransitionRegion(TwoPathProbe, {{"wrong_param", 1}}, {{{"blkcnt", 1}}}, {});
  EXPECT_FALSE(v.ok());
  ASSERT_EQ(v.violations.size(), 1u);
  EXPECT_NE(v.violations[0].find("reference run failed"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ComputeCoverage / Covers
// ---------------------------------------------------------------------------

InteractionTemplate Tpl(std::vector<ConstraintAtom> atoms) {
  InteractionTemplate t;
  t.name = "t";
  t.entry = "e";
  t.params.push_back({"blkcnt", false});
  for (auto& a : atoms) t.initial.AddAtom(std::move(a));
  return t;
}

ConstraintAtom Atom(const char* param, Cmp cmp, uint64_t v) {
  return ConstraintAtom{Expr::Input(param), cmp, Expr::Const(v)};
}

TEST(CoverageTest, TableDrivenSingleAtomRanges) {
  struct Case {
    Cmp cmp;
    uint64_t bound;
    uint64_t inside;
    uint64_t outside;
  };
  const Case cases[] = {
      {Cmp::kEq, 8, 8, 9},   {Cmp::kLe, 8, 8, 9},    {Cmp::kLt, 8, 7, 8},
      {Cmp::kGe, 8, 8, 7},   {Cmp::kGt, 8, 9, 8},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.cmp));
    Coverage cov = ComputeCoverage({Tpl({Atom("blkcnt", c.cmp, c.bound)})});
    EXPECT_TRUE(Covers(cov, "blkcnt", c.inside));
    EXPECT_FALSE(Covers(cov, "blkcnt", c.outside));
  }
}

TEST(CoverageTest, ConjunctionIntersectsAndTemplatesUnion) {
  // One template covers [4, 8], a second covers exactly 32.
  Coverage cov = ComputeCoverage({
      Tpl({Atom("blkcnt", Cmp::kGe, 4), Atom("blkcnt", Cmp::kLe, 8)}),
      Tpl({Atom("blkcnt", Cmp::kEq, 32)}),
  });
  EXPECT_FALSE(Covers(cov, "blkcnt", 3));
  EXPECT_TRUE(Covers(cov, "blkcnt", 4));
  EXPECT_TRUE(Covers(cov, "blkcnt", 8));
  EXPECT_FALSE(Covers(cov, "blkcnt", 9));
  EXPECT_TRUE(Covers(cov, "blkcnt", 32));
  EXPECT_FALSE(Covers(cov, "blkcnt", 33));
}

TEST(CoverageTest, AdjacentRangesMerge) {
  Coverage cov = ComputeCoverage({
      Tpl({Atom("blkcnt", Cmp::kGe, 1), Atom("blkcnt", Cmp::kLe, 4)}),
      Tpl({Atom("blkcnt", Cmp::kGe, 5), Atom("blkcnt", Cmp::kLe, 8)}),
  });
  const ParamCoverage& pc = cov.at("blkcnt");
  ASSERT_EQ(pc.ranges.size(), 1u);
  EXPECT_EQ(pc.ranges[0].lo, 1u);
  EXPECT_EQ(pc.ranges[0].hi, 8u);
}

TEST(CoverageTest, UnconstrainedParamAcceptsEverything) {
  InteractionTemplate t;
  t.name = "any";
  t.entry = "e";
  t.params.push_back({"flag", false});
  Coverage cov = ComputeCoverage({t});
  EXPECT_TRUE(Covers(cov, "flag", 0));
  EXPECT_TRUE(Covers(cov, "flag", UINT64_MAX));
  // A param no template mentions at all is fully covered by definition.
  EXPECT_TRUE(Covers(cov, "never_mentioned", 123));
}

TEST(CoverageTest, NeAtomShrinksNothing) {
  // Non-interval atoms conservatively leave the region unshrunk rather than
  // inventing holes the selection logic does not actually enforce.
  Coverage cov = ComputeCoverage({Tpl({Atom("blkcnt", Cmp::kNe, 8)})});
  EXPECT_TRUE(Covers(cov, "blkcnt", 8));
}

TEST(CoverageTest, ReportListsRangesPerParam) {
  Coverage cov = ComputeCoverage({
      Tpl({Atom("blkcnt", Cmp::kGe, 1), Atom("blkcnt", Cmp::kLe, 8)}),
  });
  std::string report = CoverageReport(cov);
  EXPECT_NE(report.find("blkcnt"), std::string::npos);
  EXPECT_NE(report.find("0x1"), std::string::npos);
  EXPECT_NE(report.find("0x8"), std::string::npos);
}

}  // namespace
}  // namespace dlt
