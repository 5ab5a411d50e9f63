// Differential coverage for the scaled template store: constraint-indexed
// selection vs the linear oracle, the v2 zero-copy package format, and lazy
// hydration.
//
//   TemplateIndexTest  index-vs-linear parity on the production-shaped scale
//                      corpus plus crafted ambiguity / missing-param /
//                      kNoTemplate edges, and FactorGates unit coverage
//   PackageV2Test      seal/open round trips across wire generations, every-
//                      byte truncation + corruption sweeps, mmap registration
//                      without up-front hydration
//   StoreScaleTest     concurrent shard-view selection over one lazily mapped
//                      population and zero-copy service registration (the
//                      TSan job runs this suite)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "src/check/scale_corpus.h"
#include "src/check/template_gen.h"
#include "src/core/constraint_index.h"
#include "src/core/package.h"
#include "src/core/serialize_binary.h"
#include "src/core/template_store.h"
#include "src/tee/replay_service.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

bool WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  return n == bytes.size();
}

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
// PackageV2Test
// ---------------------------------------------------------------------------

DriverletPackage SmallV2Package() {
  DriverletPackage pkg;
  pkg.driverlet = "fuzz2";
  for (uint64_t s = 0; s < 2; ++s) {
    GenConfig gc;
    gc.seed = 21 + s;
    gc.min_blocks = 1;
    gc.max_blocks = 2;
    GeneratedCase c = GenerateCase(gc);
    c.tpl.name = "v2_" + std::to_string(s);
    pkg.templates.push_back(std::move(c.tpl));
  }
  return pkg;
}

TEST(PackageV2Test, SealV2RoundTripsThroughOpenPackage) {
  DriverletPackage pkg = SmallV2Package();
  PackageSizes sizes;
  std::vector<uint8_t> sealed = SealPackageV2(pkg, kDeveloperKey, &sizes);
  EXPECT_EQ(sizes.serialized, sizes.compressed);  // v2 is uncompressed
  Result<DriverletPackage> back = OpenPackage(sealed.data(), sealed.size(), kDeveloperKey);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->driverlet, pkg.driverlet);
  ASSERT_EQ(back->templates.size(), pkg.templates.size());
  for (size_t i = 0; i < pkg.templates.size(); ++i) {
    EXPECT_TRUE(SameStateTransition(pkg.templates[i].events, back->templates[i].events)) << i;
    EXPECT_EQ(pkg.templates[i].initial.ToString(), back->templates[i].initial.ToString()) << i;
  }
}

TEST(PackageV2Test, V1AndV2DecodeToIdenticalTemplates) {
  DriverletPackage pkg = SmallV2Package();
  std::vector<uint8_t> v1 = SealPackage(pkg, PackageFormat::kBinary, kDeveloperKey);
  std::vector<uint8_t> v2 = SealPackageV2(pkg, kDeveloperKey);
  Result<DriverletPackage> from_v1 = OpenPackage(v1.data(), v1.size(), kDeveloperKey);
  Result<DriverletPackage> from_v2 = OpenPackage(v2.data(), v2.size(), kDeveloperKey);
  ASSERT_TRUE(from_v1.ok() && from_v2.ok());
  ASSERT_EQ(from_v1->templates.size(), from_v2->templates.size());
  // The canonical binary encoding is the strictest equality we have.
  for (size_t i = 0; i < from_v1->templates.size(); ++i) {
    EXPECT_EQ(TemplateContentHash(from_v1->templates[i]),
              TemplateContentHash(from_v2->templates[i]))
        << i;
  }
}

TEST(PackageV2Test, ViewHydratesToTheEagerParse) {
  DriverletPackage pkg = SmallV2Package();
  std::vector<uint8_t> sealed = SealPackageV2(pkg, kDeveloperKey);
  Result<SealedView> sv = OpenPackageView(sealed.data(), sealed.size(), kDeveloperKey);
  ASSERT_TRUE(sv.ok());
  EXPECT_EQ(sv->driverlet, "fuzz2");
  ASSERT_EQ(sv->view.size(), pkg.templates.size());
  for (size_t i = 0; i < sv->view.size(); ++i) {
    InteractionTemplate t = sv->view.header(i);
    EXPECT_TRUE(t.events.empty());  // directory parse only
    ASSERT_TRUE(Ok(sv->view.HydrateEvents(i, &t)));
    EXPECT_EQ(TemplateContentHash(t), TemplateContentHash(pkg.templates[i])) << i;
  }
}

TEST(PackageV2Test, V1EnvelopeYieldsUnsupportedForZeroCopyOpen) {
  DriverletPackage pkg = SmallV2Package();
  std::vector<uint8_t> v1 = SealPackage(pkg, PackageFormat::kBinary, kDeveloperKey);
  Result<SealedView> sv = OpenPackageView(v1.data(), v1.size(), kDeveloperKey);
  ASSERT_FALSE(sv.ok());
  EXPECT_EQ(sv.status(), Status::kUnsupported);
}

TEST(PackageV2Test, TruncationAtEveryByteRejected) {
  std::vector<uint8_t> sealed = SealPackageV2(SmallV2Package(), kDeveloperKey);
  for (size_t cut = 0; cut < sealed.size(); ++cut) {
    Result<DriverletPackage> r = OpenPackage(sealed.data(), cut, kDeveloperKey);
    ASSERT_FALSE(r.ok()) << "truncation at " << cut << " accepted";
    EXPECT_TRUE(r.status() == Status::kCorrupt || r.status() == Status::kInvalidArg)
        << "truncation at " << cut << ": " << StatusName(r.status());
  }
}

TEST(PackageV2Test, CorruptionAtEveryByteRejected) {
  std::vector<uint8_t> sealed = SealPackageV2(SmallV2Package(), kDeveloperKey);
  for (size_t pos = 0; pos < sealed.size(); ++pos) {
    sealed[pos] ^= 0x80;
    Result<DriverletPackage> r = OpenPackage(sealed.data(), sealed.size(), kDeveloperKey);
    ASSERT_FALSE(r.ok()) << "flip at " << pos << " accepted";
    sealed[pos] ^= 0x80;
  }
  EXPECT_TRUE(OpenPackage(sealed.data(), sealed.size(), kDeveloperKey).ok());
}

TEST(PackageV2Test, MappedRegistrationHydratesOnlyOnSelection) {
  ScaleCorpusConfig cfg;
  cfg.templates = 200;
  cfg.entries = 8;
  ScaleCorpus corpus = BuildScaleCorpus(cfg);
  std::string path = ::testing::TempDir() + "/scale_lazy.dpkg";
  ASSERT_TRUE(WriteFileBytes(path, SealPackageV2(corpus.pkg, kDeveloperKey)));

  TemplateStore store;
  ASSERT_TRUE(Ok(store.AddPackageFile(path, kDeveloperKey)));
  EXPECT_TRUE(store.HasDriverlet(kScaleDriverlet));
  EXPECT_EQ(store.template_count(), cfg.templates);
  EXPECT_EQ(store.lazy_template_count(), cfg.templates);  // nothing hydrated
  EXPECT_EQ(store.hydrated_templates(), 0u);
  // Admission data comes from the seal-time directory, not from hydration.
  EXPECT_FALSE(store.DevicesOf(kScaleDriverlet).empty());
  EXPECT_EQ(store.hydrated_templates(), 0u);

  // One selection hydrates exactly the winner.
  size_t target = 42;
  Result<const InteractionTemplate*> r =
      store.Select(kScaleDriverlet, ScaleEntry(cfg, target), ScaleInvokeScalars(corpus, target));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->name, "scale_" + std::to_string(target));
  EXPECT_FALSE((*r)->events.empty());
  EXPECT_EQ(store.hydrated_templates(), 1u);
  std::remove(path.c_str());
}

TEST(PackageV2Test, MappedAndEagerSelectIdentically) {
  ScaleCorpusConfig cfg;
  cfg.templates = 150;
  cfg.entries = 6;
  ScaleCorpus corpus = BuildScaleCorpus(cfg);
  std::string path = ::testing::TempDir() + "/scale_diff.dpkg";
  ASSERT_TRUE(WriteFileBytes(path, SealPackageV2(corpus.pkg, kDeveloperKey)));

  TemplateStore eager, lazy;
  ASSERT_TRUE(Ok(eager.AddPackage(corpus.pkg)));
  ASSERT_TRUE(Ok(lazy.AddPackageFile(path, kDeveloperKey)));
  for (size_t target = 0; target < cfg.templates; target += 5) {
    Bindings scalars = ScaleInvokeScalars(corpus, target);
    std::string entry = ScaleEntry(cfg, target);
    Result<const InteractionTemplate*> a = eager.Select(kScaleDriverlet, entry, scalars);
    Result<const InteractionTemplate*> b = lazy.Select(kScaleDriverlet, entry, scalars);
    ASSERT_TRUE(a.ok() && b.ok()) << "target " << target;
    EXPECT_EQ((*a)->name, (*b)->name);
    // Hydrated body == eagerly parsed body, byte for byte.
    EXPECT_EQ(TemplateContentHash(**a), TemplateContentHash(**b)) << "target " << target;
  }
  std::remove(path.c_str());
}

TEST(PackageV2Test, EagerReRegistrationReplacesTheMapping) {
  ScaleCorpusConfig cfg;
  cfg.templates = 60;
  cfg.entries = 4;
  ScaleCorpus corpus = BuildScaleCorpus(cfg);
  std::string path = ::testing::TempDir() + "/scale_replace.dpkg";
  ASSERT_TRUE(WriteFileBytes(path, SealPackageV2(corpus.pkg, kDeveloperKey)));

  TemplateStore store;
  ASSERT_TRUE(Ok(store.AddPackageFile(path, kDeveloperKey)));
  EXPECT_EQ(store.lazy_template_count(), cfg.templates);
  ASSERT_TRUE(Ok(store.AddPackage(corpus.pkg)));  // eager replacement
  EXPECT_EQ(store.template_count(), cfg.templates);
  EXPECT_EQ(store.lazy_template_count(), 0u);
  ASSERT_TRUE(Ok(store.AddPackageFile(path, kDeveloperKey)));  // and back
  EXPECT_EQ(store.template_count(), cfg.templates);
  EXPECT_EQ(store.lazy_template_count(), cfg.templates);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// StoreScaleTest
// ---------------------------------------------------------------------------

TEST(StoreScaleTest, ConcurrentShardViewsHydrateOneMappedPopulation) {
  // The TSan target: four threads race selections (and thus first-touch
  // hydrations) across shard views of one lazily mapped population.
  ScaleCorpusConfig cfg;
  cfg.templates = 240;
  cfg.entries = 8;
  ScaleCorpus corpus = BuildScaleCorpus(cfg);
  std::string path = ::testing::TempDir() + "/scale_tsan.dpkg";
  ASSERT_TRUE(WriteFileBytes(path, SealPackageV2(corpus.pkg, kDeveloperKey)));

  TemplateStore origin;
  ASSERT_TRUE(Ok(origin.AddPackageFile(path, kDeveloperKey)));
  std::vector<std::unique_ptr<TemplateStore>> views;
  for (int i = 0; i < 4; ++i) views.push_back(origin.NewShardView());
  ASSERT_TRUE(views[0]->SharesPopulationWith(origin));

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      TemplateStore& view = *views[t];
      for (size_t target = 0; target < cfg.templates; ++target) {
        Result<const InteractionTemplate*> r = view.Select(
            kScaleDriverlet, ScaleEntry(cfg, target), ScaleInvokeScalars(corpus, target));
        if (!r.ok() || (*r)->name != "scale_" + std::to_string(target) ||
            (*r)->events.empty()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // Every template hydrated exactly once despite 4x coverage of each target.
  EXPECT_EQ(origin.hydrated_templates(), cfg.templates);
  std::remove(path.c_str());
}

TEST(StoreScaleTest, ServiceRegistersMappedFileZeroCopy) {
  ScaleCorpusConfig cfg;
  cfg.templates = 100;
  cfg.entries = 4;
  ScaleCorpus corpus = BuildScaleCorpus(cfg);
  std::string path = ::testing::TempDir() + "/scale_svc.dpkg";
  ASSERT_TRUE(WriteFileBytes(path, SealPackageV2(corpus.pkg, kDeveloperKey)));

  TestbedOptions opts;
  opts.secure_io = true;
  opts.probe_drivers = false;
  Rpi3Testbed tb(opts);
  ReplayService service(&tb.tee(), kDeveloperKey);
  Result<std::string> name = service.RegisterDriverletFile(path);
  ASSERT_TRUE(name.ok()) << StatusName(name.status());
  EXPECT_EQ(*name, kScaleDriverlet);
  EXPECT_TRUE(service.IsRegistered(kScaleDriverlet));
  // Registration parsed the directory only.
  EXPECT_EQ(service.store().lazy_template_count(), cfg.templates);
  EXPECT_EQ(service.store().hydrated_templates(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dlt
