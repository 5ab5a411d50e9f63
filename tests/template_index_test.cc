// Differential coverage for the scaled template store: constraint-indexed
// selection vs the linear oracle, and concurrent readers across population
// publishes.
//
//   TemplateIndexTest  index-vs-linear parity on the production-shaped scale
//                      corpus plus crafted ambiguity / missing-param /
//                      kNoTemplate edges, and FactorGates unit coverage
//   StoreScaleTest     selections racing re-registration of the same
//                      driverlet on one store (the TSan job runs this suite)
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/check/scale_corpus.h"
#include "src/core/constraint_index.h"
#include "src/core/template_store.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

InteractionTemplate TinyTemplate(const std::string& name, const std::string& entry,
                                 uint64_t sel) {
  InteractionTemplate t;
  t.name = name;
  t.entry = entry;
  t.primary_device = 1;
  t.params.push_back(ParamSpec{"sel", false});
  t.initial.AddAtom(ConstraintAtom{Expr::Input("sel"), Cmp::kEq, Expr::Const(sel)});
  TemplateEvent e;
  e.kind = EventKind::kDelay;
  e.value = Expr::Const(1);
  t.events.push_back(std::move(e));
  return t;
}

// ---------------------------------------------------------------------------
// TemplateIndexTest
// ---------------------------------------------------------------------------

TEST(TemplateIndexTest, FactorGatesExtractsEqRangeMask) {
  Constraint c;
  c.AddAtom(ConstraintAtom{Expr::Input("sel"), Cmp::kEq, Expr::Const(7)});
  c.AddAtom(ConstraintAtom{Expr::Input("lvl"), Cmp::kGe, Expr::Const(16)});
  c.AddAtom(ConstraintAtom{Expr::Input("lvl"), Cmp::kLe, Expr::Const(23)});
  c.AddAtom(ConstraintAtom{
      Expr::Binary(ExprOp::kAnd, Expr::Input("flags"), Expr::Const(0xff00)), Cmp::kEq,
      Expr::Const(0x200)});
  std::vector<ConstraintGate> gates = FactorGates(c);
  bool saw_eq = false, saw_range = false, saw_mask = false;
  for (const ConstraintGate& g : gates) {
    if (g.kind == ConstraintGate::Kind::kEq && g.field == "sel" && g.eq == 7) saw_eq = true;
    if (g.kind == ConstraintGate::Kind::kRange && g.field == "lvl") saw_range = true;
    if (g.kind == ConstraintGate::Kind::kMask && g.field == "flags" && g.mask == 0xff00 &&
        g.want == 0x200) {
      saw_mask = true;
    }
  }
  EXPECT_TRUE(saw_eq);
  EXPECT_TRUE(saw_range);
  EXPECT_TRUE(saw_mask);
}

TEST(TemplateIndexTest, FactorGatesIgnoresUnfactorableAtoms) {
  // xor-obfuscated compare: semantically an equality, but not a gate shape —
  // the candidate must land in the residual list, not get a wrong gate.
  Constraint c;
  c.AddAtom(ConstraintAtom{Expr::Binary(ExprOp::kXor, Expr::Input("sel"), Expr::Const(1)),
                           Cmp::kEq, Expr::Const(4)});
  c.AddAtom(ConstraintAtom{Expr::Input("a"), Cmp::kNe, Expr::Const(0)});
  EXPECT_TRUE(FactorGates(c).empty());
}

TEST(TemplateIndexTest, ProbeReturnsMatchingSubsetInSlotOrder) {
  std::vector<Constraint> cs(12);
  for (size_t i = 0; i < cs.size(); ++i) {
    cs[i].AddAtom(ConstraintAtom{Expr::Input("sel"), Cmp::kEq, Expr::Const(i)});
  }
  std::vector<const Constraint*> ptrs;
  for (const Constraint& c : cs) ptrs.push_back(&c);
  EntryConstraintIndex idx;
  idx.Build(ptrs);
  ASSERT_TRUE(idx.discriminating());
  EXPECT_EQ(idx.indexed_count(), cs.size());
  std::vector<uint32_t> out;
  idx.Probe(Bindings{{"sel", 5}}, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 5u);
  out.clear();
  idx.Probe(Bindings{{"sel", 99}}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(TemplateIndexTest, IndexedSelectMatchesLinearOnScaleCorpus) {
  ScaleCorpusConfig cfg;
  cfg.templates = 600;
  cfg.entries = 12;
  ScaleCorpus corpus = BuildScaleCorpus(cfg);
  TemplateStore store;
  ASSERT_TRUE(Ok(store.AddPackage(corpus.pkg)));
  EXPECT_EQ(store.indexed_slot_count(), cfg.entries);

  uint64_t scanned_before = store.candidates_scanned();
  for (size_t target = 0; target < cfg.templates; target += 7) {
    Bindings scalars = ScaleInvokeScalars(corpus, target);
    std::string entry = ScaleEntry(cfg, target);
    Result<const InteractionTemplate*> fast = store.Select(kScaleDriverlet, entry, scalars);
    Result<const InteractionTemplate*> slow =
        store.SelectLinear(kScaleDriverlet, entry, scalars);
    ASSERT_TRUE(fast.ok()) << "target " << target;
    ASSERT_TRUE(slow.ok()) << "target " << target;
    EXPECT_EQ((*fast)->name, (*slow)->name) << "target " << target;
    EXPECT_EQ((*fast)->name, "scale_" + std::to_string(target));
    EXPECT_FALSE((*fast)->events.empty());  // eager load: bodies present
  }
  EXPECT_GT(store.index_probes(), 0u);
  // The indexed scans are interleaved with full linear scans above; the
  // aggregate still has to come in far under 2x the pure-linear cost.
  uint64_t scanned = store.candidates_scanned() - scanned_before;
  uint64_t rows_per_slot = cfg.templates / cfg.entries;
  EXPECT_LT(scanned, 2 * (cfg.templates / 7 + 1) * rows_per_slot);
}

TEST(TemplateIndexTest, RejectedReportMatchesLinearPath) {
  ScaleCorpusConfig cfg;
  cfg.templates = 120;
  cfg.entries = 4;
  ScaleCorpus corpus = BuildScaleCorpus(cfg);
  TemplateStore store;
  ASSERT_TRUE(Ok(store.AddPackage(corpus.pkg)));
  for (size_t target = 0; target < cfg.templates; target += 13) {
    Bindings scalars = ScaleInvokeScalars(corpus, target);
    std::string entry = ScaleEntry(cfg, target);
    std::vector<const InteractionTemplate*> rej_a, rej_b;
    Result<const InteractionTemplate*> a = store.Select(kScaleDriverlet, entry, scalars, &rej_a);
    Result<const InteractionTemplate*> b =
        store.SelectLinear(kScaleDriverlet, entry, scalars, &rej_b);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ((*a)->name, (*b)->name);
    // rejected!=nullptr routes Select through the full scan, so the reports
    // are identical, not merely similar.
    EXPECT_EQ(rej_a, rej_b) << "target " << target;
  }
}

TEST(TemplateIndexTest, NoTemplateAndMissingParamAgree) {
  ScaleCorpusConfig cfg;
  cfg.templates = 200;
  cfg.entries = 8;
  ScaleCorpus corpus = BuildScaleCorpus(cfg);
  TemplateStore store;
  ASSERT_TRUE(Ok(store.AddPackage(corpus.pkg)));

  // Bindings matching no row of slot 0.
  Bindings none = ScaleInvokeScalars(corpus, 0);
  none["sel"] = 0xdeadbeefull;
  none["lvl"] = 3;
  none["flags"] = 0;
  Result<const InteractionTemplate*> fast = store.Select(kScaleDriverlet, ScaleEntry(cfg, 0), none);
  Result<const InteractionTemplate*> slow =
      store.SelectLinear(kScaleDriverlet, ScaleEntry(cfg, 0), none);
  ASSERT_FALSE(fast.ok());
  ASSERT_FALSE(slow.ok());
  EXPECT_EQ(fast.status(), slow.status());

  // Bindings missing every constrained scalar: the param-presence check skips
  // all rows on both paths.
  Bindings missing{{"unrelated", 1}};
  fast = store.Select(kScaleDriverlet, ScaleEntry(cfg, 0), missing);
  slow = store.SelectLinear(kScaleDriverlet, ScaleEntry(cfg, 0), missing);
  EXPECT_FALSE(fast.ok());
  EXPECT_FALSE(slow.ok());
  EXPECT_EQ(fast.status(), slow.status());
}

TEST(TemplateIndexTest, AmbiguousMatchKeepsFirstOnBothPaths) {
  // Rows 0..9 carry sel==i, except row 7 duplicates row 3's constraint. The
  // slot is large enough to be indexed; sel=3 lights rows {3, 7} in the eq
  // bucket and first-match-wins must pick row 3 on both paths.
  DriverletPackage pkg;
  pkg.driverlet = "amb";
  for (uint64_t i = 0; i < 10; ++i) {
    pkg.templates.push_back(
        TinyTemplate("amb_" + std::to_string(i), "replay_amb", i == 7 ? 3 : i));
  }
  TemplateStore store;
  ASSERT_TRUE(Ok(store.AddPackage(pkg)));
  ASSERT_EQ(store.indexed_slot_count(), 1u);
  Bindings scalars{{"sel", 3}};
  Result<const InteractionTemplate*> fast = store.Select("amb", "replay_amb", scalars);
  Result<const InteractionTemplate*> slow = store.SelectLinear("amb", "replay_amb", scalars);
  ASSERT_TRUE(fast.ok() && slow.ok());
  EXPECT_EQ((*fast)->name, "amb_3");
  EXPECT_EQ((*slow)->name, "amb_3");
}

TEST(TemplateIndexTest, SmallSlotsSkipTheIndex) {
  DriverletPackage pkg;
  pkg.driverlet = "tiny";
  for (uint64_t i = 0; i < EntryConstraintIndex::kMinIndexedCandidates - 1; ++i) {
    pkg.templates.push_back(TinyTemplate("tiny_" + std::to_string(i), "replay_tiny", i));
  }
  TemplateStore store;
  ASSERT_TRUE(Ok(store.AddPackage(pkg)));
  EXPECT_EQ(store.indexed_slot_count(), 0u);
  uint64_t probes_before = store.index_probes();
  Result<const InteractionTemplate*> r = store.Select("tiny", "replay_tiny", Bindings{{"sel", 2}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->name, "tiny_2");
  EXPECT_EQ(store.index_probes(), probes_before);
}

// ---------------------------------------------------------------------------
// StoreScaleTest
// ---------------------------------------------------------------------------

TEST(StoreScaleTest, ConcurrentSelectsDuringRepublish) {
  // The TSan target: four threads select every target on one store while a
  // fifth re-registers the same driverlet, so readers race population
  // publishes. A reader keeps the population it pinned, so every select still
  // returns its target with its events.
  ScaleCorpusConfig cfg;
  cfg.templates = 240;
  cfg.entries = 8;
  ScaleCorpus corpus = BuildScaleCorpus(cfg);
  TemplateStore store;
  ASSERT_TRUE(Ok(store.AddPackage(corpus.pkg)));

  std::atomic<bool> republished{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      // At least one full pass, and keep selecting until the writer is done.
      do {
        for (size_t target = 0; target < cfg.templates; ++target) {
          Result<const InteractionTemplate*> r = store.Select(
              kScaleDriverlet, ScaleEntry(cfg, target), ScaleInvokeScalars(corpus, target));
          if (!r.ok() || (*r)->name != "scale_" + std::to_string(target) ||
              (*r)->events.empty()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } while (!republished.load(std::memory_order_acquire));
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 20; ++i) {
      if (!Ok(store.AddPackage(corpus.pkg))) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
    republished.store(true, std::memory_order_release);
  });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.template_count(), cfg.templates);
}

}  // namespace
}  // namespace dlt
