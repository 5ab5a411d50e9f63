// Tier-1 conformance harness tests (docs/conformance.md): generator
// determinism and variety, GenDevice scripting semantics, a 50-seed fixed
// corpus through every invariant, repro round-trips, and the planted binary
// decoder bug being caught by the serialize-roundtrip invariant and shrunk to
// a tiny repro.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "src/check/conformance.h"
#include "src/core/serialize_binary.h"
#include "src/core/serialize_text.h"

namespace dlt {
namespace {

// Arms the planted decoder bug for one scope; tests must not leak it into the
// rest of the suite.
class QuirkGuard {
 public:
  QuirkGuard() { SetBinaryValueQuirkForTest(true); }
  ~QuirkGuard() { SetBinaryValueQuirkForTest(false); }
};

std::string TplText(const InteractionTemplate& tpl) { return TemplatesToText({tpl}); }

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

TEST(TemplateGenTest, RngStreamsAreSeedDeterministic) {
  GenRng a(42), b(42), c(43);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    any_diff |= va != c.Next();
  }
  EXPECT_TRUE(any_diff);
}

TEST(TemplateGenTest, SameSeedYieldsIdenticalCases) {
  GeneratedCase a = GenerateCase(7);
  GeneratedCase b = GenerateCase(7);
  EXPECT_EQ(TplText(a.tpl), TplText(b.tpl));
  EXPECT_EQ(a.scalars, b.scalars);
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(a.expected_out, b.expected_out);
  EXPECT_EQ(a.out_len, b.out_len);
  EXPECT_EQ(a.script.initial_regs, b.script.initial_regs);
  EXPECT_EQ(a.script.read_queues, b.script.read_queues);
  EXPECT_EQ(a.script.irq_delay_us, b.script.irq_delay_us);

  GeneratedCase other = GenerateCase(8);
  EXPECT_NE(TplText(a.tpl), TplText(other.tpl));
}

TEST(TemplateGenTest, SeedSweepExercisesTheEventVocabulary) {
  std::set<EventKind> kinds;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    GeneratedCase g = GenerateCase(seed);
    EXPECT_FALSE(g.tpl.events.empty()) << "seed " << seed;
    EXPECT_TRUE(SymbolClosureValid(g.tpl)) << "seed " << seed;
    for (const TemplateEvent& e : g.tpl.events) kinds.insert(e.kind);
  }
  // The sweep must hit the interesting corners, not just register traffic.
  for (EventKind k : {EventKind::kRegWrite, EventKind::kRegRead, EventKind::kPollReg,
                      EventKind::kShmWrite, EventKind::kShmRead, EventKind::kDmaAlloc,
                      EventKind::kCopyToDma, EventKind::kCopyFromDma,
                      EventKind::kWaitIrq, EventKind::kPioOut}) {
    EXPECT_TRUE(kinds.count(k)) << "missing " << EventKindName(k);
  }
  EXPECT_GE(kinds.size(), 10u);
}

// ---------------------------------------------------------------------------
// GenDevice
// ---------------------------------------------------------------------------

TEST(GenDeviceTest, ScriptedQueuesPopThenFallBackAndRewindOnReset) {
  Machine m;
  GenDevice dev(&m.clock(), &m.irq());
  GenScript s;
  s.initial_regs[0x10] = 5;
  s.read_queues[0x10] = {7, 9};
  dev.Configure(s);

  EXPECT_EQ(dev.MmioRead32(0x10), 7u);
  EXPECT_EQ(dev.MmioRead32(0x10), 9u);
  EXPECT_EQ(dev.MmioRead32(0x10), 5u);  // queue exhausted -> register value
  dev.MmioWrite32(0x10, 0x1234);
  EXPECT_EQ(dev.MmioRead32(0x10), 0x1234u);

  dev.SoftReset();
  EXPECT_EQ(dev.MmioRead32(0x10), 7u);  // cursor rewound
  EXPECT_EQ(dev.MmioRead32(0x10), 9u);
  EXPECT_EQ(dev.MmioRead32(0x10), 5u);  // register file restored too
}

TEST(GenDeviceTest, DoorbellRaisesAfterDelayAckClearsResetCancels) {
  Machine m;
  GenDevice dev(&m.clock(), &m.irq());
  GenScript s;
  s.irq_delay_us = 40;
  dev.Configure(s);

  dev.MmioWrite32(GenDevice::kDoorbellOff, 1);
  EXPECT_FALSE(m.irq().Pending(dev.irq_line()));
  m.clock().Advance(40);
  EXPECT_TRUE(m.irq().Pending(dev.irq_line()));
  dev.MmioWrite32(GenDevice::kIrqAckOff, 1);
  EXPECT_FALSE(m.irq().Pending(dev.irq_line()));

  // An in-flight raise does not survive a soft reset.
  dev.MmioWrite32(GenDevice::kDoorbellOff, 1);
  dev.SoftReset();
  m.clock().Advance(100);
  EXPECT_FALSE(m.irq().Pending(dev.irq_line()));
}

TEST(GenDeviceTest, DoorbellSetsPublishCompletionStateAfterDelay) {
  // The descriptor-ring idiom: a consumer-index register stays at its reset
  // value until the doorbell's completion fires, then jumps to the scripted
  // value. SoftReset rewinds it, so every replay attempt re-earns completion.
  Machine m;
  GenDevice dev(&m.clock(), &m.irq());
  GenScript s;
  s.irq_delay_us = 40;
  s.initial_regs[0x20] = 0;
  s.doorbell_sets[0x20] = 3;
  dev.Configure(s);

  EXPECT_EQ(dev.MmioRead32(0x20), 0u);
  dev.MmioWrite32(GenDevice::kDoorbellOff, 1);
  m.clock().Advance(39);
  EXPECT_EQ(dev.MmioRead32(0x20), 0u);  // not complete yet
  m.clock().Advance(1);
  EXPECT_EQ(dev.MmioRead32(0x20), 3u);  // consumer index caught up
  EXPECT_TRUE(m.irq().Pending(dev.irq_line()));

  dev.SoftReset();
  EXPECT_EQ(dev.MmioRead32(0x20), 0u);  // completion state rewound
}

// ---------------------------------------------------------------------------
// Fixed-seed corpus: every invariant over 50 seeds
// ---------------------------------------------------------------------------

TEST(ConformanceTest, FixedSeedCorpusConforms) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ConformanceOutcome out = RunConformance(GenerateCase(seed));
    for (const ConformanceFailure& f : out.failures) {
      ADD_FAILURE() << f.invariant << ": " << f.detail;
    }
    EXPECT_EQ(out.invariants_run, static_cast<int>(AllInvariants().size()));
    EXPECT_GT(out.events_executed, 0u);
  }
}

TEST(ConformanceTest, NewShapesAppearInSweepAndConform) {
  // The fTPM-pipe shape (a kPioIn whose length is an expression over a scalar
  // parameter) and the crypto-queue shape (a doorbell-published consumer
  // index, i.e. a non-empty doorbell_sets script) must both occur within a
  // modest seed sweep — and the first case carrying each shape must pass every
  // invariant, so the new vocabulary is pinned rather than statistically
  // covered.
  bool saw_varlen_pio = false;
  bool saw_ring = false;
  for (uint64_t seed = 1; seed <= 120 && !(saw_varlen_pio && saw_ring); ++seed) {
    GeneratedCase g = GenerateCase(seed);
    bool varlen = false;
    for (const TemplateEvent& e : g.tpl.events) {
      if (e.kind == EventKind::kPioIn && e.value && !e.value->is_const()) {
        varlen = true;
      }
    }
    bool ring = !g.script.doorbell_sets.empty();
    if ((varlen && !saw_varlen_pio) || (ring && !saw_ring)) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      ConformanceOutcome out = RunConformance(g);
      for (const ConformanceFailure& f : out.failures) {
        ADD_FAILURE() << f.invariant << ": " << f.detail;
      }
    }
    saw_varlen_pio |= varlen;
    saw_ring |= ring;
  }
  EXPECT_TRUE(saw_varlen_pio);
  EXPECT_TRUE(saw_ring);
}

TEST(ConformanceTest, DeepExpressionsFallBackToInterpreterAndStillConform) {
  GenConfig cfg;
  cfg.seed = 3;
  cfg.force_deep_expr = true;
  GeneratedCase g = GenerateCase(cfg);
  // The forced 30-level operand chain is present, and the executor evaluates
  // it like any shallow expression: every invariant holds.
  size_t deepest = 0;
  for (const TemplateEvent& e : g.tpl.events) {
    size_t depth = 0;
    for (ExprRef v = e.value; v != nullptr && !v->is_const(); v = v->rhs()) {
      ++depth;
    }
    deepest = std::max(deepest, depth);
  }
  EXPECT_GE(deepest, 30u);
  ConformanceOutcome out = RunConformance(g);
  for (const ConformanceFailure& f : out.failures) {
    ADD_FAILURE() << f.invariant << ": " << f.detail;
  }
}

// ---------------------------------------------------------------------------
// Shrinker support: symbol closure
// ---------------------------------------------------------------------------

TEST(ConformanceTest, SymbolClosureAcceptsBindThenUse) {
  InteractionTemplate t;
  t.params.push_back({"a", false});
  TemplateEvent read;
  read.kind = EventKind::kRegRead;
  read.device = kGenDeviceId;
  read.reg_off = 0x10;
  read.bind = "v";
  // Constraints may reference their own bind.
  read.constraint.AddAtom({Expr::Input("v"), Cmp::kEq, Expr::Const(7)});
  t.events.push_back(read);
  TemplateEvent write;
  write.kind = EventKind::kRegWrite;
  write.device = kGenDeviceId;
  write.reg_off = 0x14;
  write.value = Expr::Binary(ExprOp::kAdd, Expr::Input("v"), Expr::Input("a"));
  t.events.push_back(write);
  EXPECT_TRUE(SymbolClosureValid(t));
}

TEST(ConformanceTest, SymbolClosureRejectsDanglingReferences) {
  InteractionTemplate t;
  TemplateEvent write;
  write.kind = EventKind::kRegWrite;
  write.device = kGenDeviceId;
  write.reg_off = 0x10;
  write.value = Expr::Input("never_bound");
  t.events.push_back(write);
  EXPECT_FALSE(SymbolClosureValid(t));

  // A bind is not visible to the same event's own operand expressions.
  InteractionTemplate self;
  TemplateEvent read;
  read.kind = EventKind::kShmRead;
  read.addr = Expr::Input("v");
  read.bind = "v";
  self.events.push_back(read);
  EXPECT_FALSE(SymbolClosureValid(self));
}

// ---------------------------------------------------------------------------
// Repro files
// ---------------------------------------------------------------------------

TEST(ReproTest, RoundTripPreservesTheWholeCase) {
  GeneratedCase g = GenerateCase(11);
  std::string text = ReproToString(g, "serialize-roundtrip");
  auto parsed = ParseRepro(text);
  ASSERT_TRUE(parsed.ok()) << StatusName(parsed.status());
  const Repro& r = *parsed;
  EXPECT_EQ(r.invariant, "serialize-roundtrip");
  EXPECT_EQ(r.c.seed, g.seed);
  EXPECT_EQ(r.c.scalars, g.scalars);
  EXPECT_EQ(r.c.payload, g.payload);
  EXPECT_EQ(r.c.out_len, g.out_len);
  EXPECT_EQ(r.c.script.initial_regs, g.script.initial_regs);
  EXPECT_EQ(r.c.script.read_queues, g.script.read_queues);
  EXPECT_EQ(r.c.script.irq_delay_us, g.script.irq_delay_us);
  EXPECT_EQ(r.c.script.doorbell_sets, g.script.doorbell_sets);
  EXPECT_EQ(TplText(r.c.tpl), TplText(g.tpl));
  // Serialization is a fixpoint: re-render matches exactly.
  EXPECT_EQ(ReproToString(r.c, r.invariant), text);

  std::string path = ::testing::TempDir() + "/roundtrip.repro";
  ASSERT_TRUE(Ok(WriteRepro(path, g, "serialize-roundtrip")));
  auto reread = ReadRepro(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(TplText(reread->c.tpl), TplText(g.tpl));
}

TEST(ReproTest, ParserRejectsGarbage) {
  EXPECT_FALSE(ParseRepro("not a repro").ok());
  EXPECT_FALSE(ParseRepro("driverlet-repro v1\nseed zzz\n").ok());
  EXPECT_FALSE(ReadRepro("/nonexistent/path.repro").ok());
}

// ---------------------------------------------------------------------------
// The planted decoder bug: caught, shrunk, repro'd
// ---------------------------------------------------------------------------

TEST(ConformanceTest, ShrinkRefusesAPassingCase) {
  auto r = Shrink(GenerateCase(1), {"serialize-roundtrip"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status(), Status::kInvalidArg);
}

TEST(ConformanceTest, FoldQuirkIsCaughtAndShrunkToATinyRepro) {
  QuirkGuard armed;
  // The serialize-roundtrip invariant must notice the planted +1 on decoded
  // constant event values within a handful of seeds.
  GeneratedCase failing;
  bool found = false;
  for (uint64_t seed = 1; seed <= 30 && !found; ++seed) {
    GeneratedCase g = GenerateCase(seed);
    if (!RunConformance(g, {"serialize-roundtrip"}).ok()) {
      failing = g;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "decoder bug not detected in 30 seeds";

  auto shrunk = Shrink(failing, {"serialize-roundtrip"});
  ASSERT_TRUE(shrunk.ok()) << StatusName(shrunk.status());
  EXPECT_EQ(shrunk->invariant, "serialize-roundtrip");
  EXPECT_LE(shrunk->reduced.tpl.events.size(), 5u);
  EXPECT_LT(shrunk->reduced.tpl.events.size(), shrunk->original_events);
  EXPECT_TRUE(SymbolClosureValid(shrunk->reduced.tpl));

  // The minimized case still fails while the quirk is armed, through the same
  // file format the CLI uses...
  std::string path = ::testing::TempDir() + "/value_quirk.repro";
  ASSERT_TRUE(Ok(WriteRepro(path, shrunk->reduced, shrunk->invariant)));
  auto repro = ReadRepro(path);
  ASSERT_TRUE(repro.ok());
  EXPECT_FALSE(RunConformance(repro->c, ReproInvariants()).ok());

  // ...and conforms again once the decoder is fixed.
  SetBinaryValueQuirkForTest(false);
  ConformanceOutcome healthy = RunConformance(repro->c, ReproInvariants());
  for (const ConformanceFailure& f : healthy.failures) {
    ADD_FAILURE() << f.invariant << ": " << f.detail;
  }
}

// ---------------------------------------------------------------------------
// Checked-in regression corpus
// ---------------------------------------------------------------------------

TEST(ConformanceTest, CorpusReprosConform) {
  std::filesystem::path dir = std::filesystem::path(DLT_SOURCE_DIR) / "tests" / "corpus";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".repro") continue;
    SCOPED_TRACE(entry.path().filename().string());
    ++seen;
    auto repro = ReadRepro(entry.path().string());
    ASSERT_TRUE(repro.ok()) << StatusName(repro.status());
    ConformanceOutcome out = RunConformance(repro->c, ReproInvariants());
    for (const ConformanceFailure& f : out.failures) {
      ADD_FAILURE() << f.invariant << ": " << f.detail;
    }
  }
  EXPECT_GE(seen, 1) << "regression corpus is empty";
}

}  // namespace
}  // namespace dlt
