// ReplayService + TemplateStore tests: multi-package loading, session routing
// and per-session stats, admission policy, the quarantine ladder, the
// buffer-view const-correctness at the service boundary, and TemplateStore
// selection and registration (param-set skips, scoping, first match wins,
// template pointers that survive other driverlets' re-registration).
#include <gtest/gtest.h>

#include "src/core/template_store.h"
#include "src/obs/telemetry.h"
#include "src/tee/replay_service.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

std::vector<uint8_t> Record(Result<RecordCampaign> (*campaign)(Rpi3Testbed*)) {
  Rpi3Testbed dev{TestbedOptions{}};
  Result<RecordCampaign> c = campaign(&dev);
  return c.ok() ? c->Seal(kDeveloperKey) : std::vector<uint8_t>{};
}

class ReplayServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mmc_ = new std::vector<uint8_t>(Record(RecordMmcCampaign));
    usb_ = new std::vector<uint8_t>(Record(RecordUsbCampaign));
    ASSERT_FALSE(mmc_->empty());
    ASSERT_FALSE(usb_->empty());
  }
  static void TearDownTestSuite() {
    delete mmc_;
    delete usb_;
  }

  void SetUp() override {
    TestbedOptions opts;
    opts.secure_io = true;
    opts.probe_drivers = false;
    tb_ = std::make_unique<Rpi3Testbed>(opts);
  }

  ReplayArgs BlockArgs(uint64_t rw, uint64_t blkcnt, std::vector<uint8_t>* buf) {
    buf->assign(blkcnt * 512, 0xa5);
    ReplayArgs args;
    args.scalars = {{"rw", rw}, {"blkcnt", blkcnt}, {"blkid", 2048}, {"flag", 0}};
    args.buffers["buf"] = BufferView{buf->data(), buf->size()};
    return args;
  }

  static std::vector<uint8_t>* mmc_;
  static std::vector<uint8_t>* usb_;
  std::unique_ptr<Rpi3Testbed> tb_;
};

std::vector<uint8_t>* ReplayServiceTest::mmc_ = nullptr;
std::vector<uint8_t>* ReplayServiceTest::usb_ = nullptr;

TEST_F(ReplayServiceTest, MultiPackageLoadNoOverwrite) {
  ReplayService svc(&tb_->tee(), kDeveloperKey);
  Result<std::string> mmc = svc.RegisterDriverlet(mmc_->data(), mmc_->size());
  ASSERT_TRUE(mmc.ok());
  EXPECT_EQ("mmc", *mmc);
  size_t mmc_count = svc.store().template_count();
  ASSERT_GT(mmc_count, 0u);

  Result<std::string> usb = svc.RegisterDriverlet(usb_->data(), usb_->size());
  ASSERT_TRUE(usb.ok());
  EXPECT_EQ("usb", *usb);
  // Loading a second package extends the population; the first survives.
  EXPECT_EQ(2u, svc.store().package_count());
  size_t both = svc.store().template_count();
  EXPECT_GT(both, mmc_count);
  EXPECT_TRUE(svc.store().HasDriverlet("mmc"));
  EXPECT_TRUE(svc.store().HasDriverlet("usb"));

  // Re-registering a driverlet replaces only its own templates.
  ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  EXPECT_EQ(2u, svc.store().package_count());
  EXPECT_EQ(both, svc.store().template_count());
  EXPECT_FALSE(svc.store().templates("usb").empty());
}

TEST_F(ReplayServiceTest, RoutesEntriesToTheRightPackage) {
  ReplayService svc(&tb_->tee(), kDeveloperKey);
  ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  ASSERT_TRUE(svc.RegisterDriverlet(usb_->data(), usb_->size()).ok());
  Result<SessionId> mmc = svc.OpenSession("mmc");
  Result<SessionId> usb = svc.OpenSession("usb");
  ASSERT_TRUE(mmc.ok());
  ASSERT_TRUE(usb.ok());

  std::vector<uint8_t> buf;
  EXPECT_TRUE(svc.Invoke(*mmc, kMmcEntry, BlockArgs(kMmcRwRead, 8, &buf)).ok());
  EXPECT_TRUE(svc.Invoke(*usb, kUsbEntry, BlockArgs(kMmcRwRead, 8, &buf)).ok());
  // Selection is scoped to the session's driverlet: an MMC session cannot
  // reach USB templates even though both live in the same store.
  Result<ReplayStats> cross = svc.Invoke(*mmc, kUsbEntry, BlockArgs(kMmcRwRead, 8, &buf));
  EXPECT_EQ(Status::kNoTemplate, cross.status());
}

TEST_F(ReplayServiceTest, ThreeSessionsKeepSeparateStats) {
  // One SecureWorld, one service, two packages, three concurrently open
  // sessions — the acceptance shape for the session refactor.
  ReplayService svc(&tb_->tee(), kDeveloperKey);
  ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  ASSERT_TRUE(svc.RegisterDriverlet(usb_->data(), usb_->size()).ok());
  Result<SessionId> a = svc.OpenSession("mmc");
  Result<SessionId> b = svc.OpenSession("mmc");
  Result<SessionId> c = svc.OpenSession("usb");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(3u, svc.open_sessions());
  EXPECT_NE(*a, *b);

  std::vector<uint8_t> buf;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(svc.Invoke(*a, kMmcEntry, BlockArgs(kMmcRwWrite, 1, &buf)).ok());
  }
  ASSERT_TRUE(svc.Invoke(*b, kMmcEntry, BlockArgs(kMmcRwRead, 8, &buf)).ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(svc.Invoke(*c, kUsbEntry, BlockArgs(kMmcRwRead, 32, &buf)).ok());
  }

  Result<SessionStats> sa = svc.Stats(*a);
  Result<SessionStats> sb = svc.Stats(*b);
  Result<SessionStats> sc = svc.Stats(*c);
  ASSERT_TRUE(sa.ok() && sb.ok() && sc.ok());
  EXPECT_EQ(3u, sa->invokes);
  EXPECT_EQ(1u, sb->invokes);
  EXPECT_EQ(2u, sc->invokes);
  EXPECT_EQ("mmc", sa->driverlet);
  EXPECT_EQ("usb", sc->driverlet);
  EXPECT_EQ(3u, sa->per_template.at("WR_1"));
  EXPECT_EQ(1u, sb->per_template.at("RD_8"));
  EXPECT_EQ(0u, sa->failures);

  // Failures are charged to the offending session only.
  std::vector<uint8_t> tiny(512);
  ReplayArgs bad;
  bad.scalars = {{"rw", kMmcRwRead}};  // uncovered input
  bad.buffers["buf"] = BufferView{tiny.data(), tiny.size()};
  EXPECT_FALSE(svc.Invoke(*b, kMmcEntry, bad).ok());
  EXPECT_EQ(1u, svc.Stats(*b)->failures);
  EXPECT_EQ(0u, svc.Stats(*a)->failures);
  EXPECT_EQ(0u, svc.Stats(*c)->failures);
}

TEST_F(ReplayServiceTest, SessionLifecycleAndCapacity) {
  ReplayServiceConfig cfg;
  cfg.max_sessions = 2;
  ReplayService svc(&tb_->tee(), kDeveloperKey, cfg);
  ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());

  EXPECT_EQ(Status::kNotFound, svc.OpenSession("gpu").status());
  Result<SessionId> a = svc.OpenSession("mmc");
  Result<SessionId> b = svc.OpenSession("mmc");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(Status::kBusy, svc.OpenSession("mmc").status());

  EXPECT_EQ(Status::kOk, svc.CloseSession(*a));
  EXPECT_EQ(Status::kNotFound, svc.CloseSession(*a));  // already closed
  EXPECT_EQ(Status::kNotFound, svc.Stats(*a).status());
  EXPECT_TRUE(svc.OpenSession("mmc").ok());  // slot freed

  std::vector<uint8_t> buf;
  Result<ReplayStats> r = svc.Invoke(*a, kMmcEntry, BlockArgs(kMmcRwRead, 1, &buf));
  EXPECT_EQ(Status::kNotFound, r.status());  // closed session cannot invoke
}

TEST_F(ReplayServiceTest, AdmissionRejectsPackageForUnmappedDevices) {
  // Firmware did not assign devices to the TEE: registration must refuse the
  // package before any template becomes selectable.
  Rpi3Testbed open_machine{TestbedOptions{.secure_io = false, .probe_drivers = false}};
  ReplayService svc(&open_machine.tee(), kDeveloperKey);
  Telemetry& tel = Telemetry::Get();
  tel.Enable();
  tel.Reset();
  Result<std::string> r = svc.RegisterDriverlet(mmc_->data(), mmc_->size());
  const uint64_t rejects = tel.metrics().counter("service.register_rejects").value();
  tel.Disable();
  tel.Reset();
  EXPECT_EQ(Status::kPermissionDenied, r.status());
  EXPECT_EQ(1u, rejects);
  EXPECT_EQ(0u, svc.registered_driverlets());
  EXPECT_EQ(0u, svc.store().template_count());
}

TEST_F(ReplayServiceTest, AdmissionRejectsTamperedPackage) {
  ReplayService svc(&tb_->tee(), kDeveloperKey);
  std::vector<uint8_t> bad = *mmc_;
  bad[bad.size() / 2] ^= 0x10;
  EXPECT_EQ(Status::kCorrupt, svc.RegisterDriverlet(bad.data(), bad.size()).status());
  EXPECT_FALSE(svc.IsRegistered("mmc"));
}

TEST_F(ReplayServiceTest, ReadOnlyBufferViewIsEnforced) {
  // A write-path template only reads the caller's buffer, so a read-only view
  // suffices; a read-path template must be refused before it scribbles on it.
  ReplayService svc(&tb_->tee(), kDeveloperKey);
  ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  Result<SessionId> sid = svc.OpenSession("mmc");
  ASSERT_TRUE(sid.ok());

  std::vector<uint8_t> payload = PatternBuf(8 * 512, 7);
  ReplayArgs wr;
  wr.scalars = {{"rw", kMmcRwWrite}, {"blkcnt", 8}, {"blkid", 64}, {"flag", 0}};
  wr.ro_buffers["buf"] = ConstBufferView{payload.data(), payload.size()};
  EXPECT_TRUE(svc.Invoke(*sid, kMmcEntry, wr).ok());

  ReplayArgs rd;
  rd.scalars = {{"rw", kMmcRwRead}, {"blkcnt", 8}, {"blkid", 64}, {"flag", 0}};
  rd.ro_buffers["buf"] = ConstBufferView{payload.data(), payload.size()};
  Result<ReplayStats> r = svc.Invoke(*sid, kMmcEntry, rd);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(Status::kPermissionDenied, r.status());
}

TEST_F(ReplayServiceTest, ReRegisteringDriverletKeepsOpenSessionsWorking) {
  ReplayService svc(&tb_->tee(), kDeveloperKey);
  ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  Result<SessionId> sid = svc.OpenSession("mmc");
  ASSERT_TRUE(sid.ok());
  std::vector<uint8_t> buf;
  ASSERT_TRUE(svc.Invoke(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, &buf)).ok());

  // A package update arrives while the session is live: the session must keep
  // its identity and stats, and route to the refreshed templates.
  ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  EXPECT_EQ(1u, svc.open_sessions());
  Result<ReplayStats> r = svc.Invoke(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, &buf));
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  EXPECT_EQ(2u, svc.Stats(*sid)->invokes);
}

TEST_F(ReplayServiceTest, StatsAccumulateAcrossFailedInvokes) {
  ReplayService svc(&tb_->tee(), kDeveloperKey);
  ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  Result<SessionId> sid = svc.OpenSession("mmc");
  ASSERT_TRUE(sid.ok());

  std::vector<uint8_t> buf;
  ASSERT_TRUE(svc.Invoke(*sid, kMmcEntry, BlockArgs(kMmcRwWrite, 1, &buf)).ok());

  // Client error 1: uncovered input (no template admits blkcnt 0).
  ReplayArgs uncovered = BlockArgs(kMmcRwRead, 8, &buf);
  uncovered.scalars["blkcnt"] = 1000000;  // beyond any recorded coverage
  EXPECT_EQ(Status::kNoTemplate, svc.Invoke(*sid, kMmcEntry, uncovered).status());
  // Client error 2: read path refused a read-only buffer view.
  ReplayArgs ro = BlockArgs(kMmcRwRead, 8, &buf);
  ro.buffers.clear();
  ro.ro_buffers["buf"] = ConstBufferView{buf.data(), buf.size()};
  EXPECT_EQ(Status::kPermissionDenied, svc.Invoke(*sid, kMmcEntry, ro).status());
  // Device failure: medium unplugged mid-session.
  tb_->sd_medium().set_present(false);
  EXPECT_EQ(Status::kAborted,
            svc.Invoke(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, &buf)).status());
  tb_->sd_medium().set_present(true);

  Result<SessionStats> st = svc.Stats(*sid);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(4u, st->invokes);  // failures still count as invokes
  EXPECT_EQ(3u, st->failures);
  // Only the device failure advanced the health streak.
  EXPECT_EQ(1u, st->consecutive_device_failures);
  EXPECT_FALSE(st->quarantined);
  // Successful-template accounting is untouched by the failures.
  EXPECT_EQ(1u, st->per_template.at("WR_1"));
  EXPECT_EQ(1u, st->per_template.size());

  // A success clears the streak.
  ASSERT_TRUE(svc.Invoke(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, &buf)).ok());
  EXPECT_EQ(0u, svc.Stats(*sid)->consecutive_device_failures);
}

TEST_F(ReplayServiceTest, QuarantineFailsFastAndOnlyDeviceFailuresClimb) {
  ReplayServiceConfig cfg;
  cfg.quarantine_threshold = 2;
  ReplayService svc(&tb_->tee(), kDeveloperKey, cfg);
  ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  Result<SessionId> sid = svc.OpenSession("mmc");
  ASSERT_TRUE(sid.ok());

  std::vector<uint8_t> buf;
  tb_->sd_medium().set_present(false);
  EXPECT_EQ(Status::kAborted,
            svc.Invoke(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, &buf)).status());

  // A client error between the two device failures must not clear the streak
  // (it says nothing about device health) — and must not quarantine either.
  ReplayArgs uncovered = BlockArgs(kMmcRwRead, 8, &buf);
  uncovered.scalars["blkcnt"] = 1000000;  // beyond any recorded coverage
  EXPECT_EQ(Status::kNoTemplate, svc.Invoke(*sid, kMmcEntry, uncovered).status());
  EXPECT_FALSE(svc.Stats(*sid)->quarantined);

  EXPECT_EQ(Status::kAborted,
            svc.Invoke(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, &buf)).status());
  EXPECT_TRUE(svc.Stats(*sid)->quarantined);
  EXPECT_EQ(1u, svc.quarantined_sessions());

  // Rung 3 is terminal for the session: even with the device healthy again,
  // both paths fail fast with the dedicated status and no device access.
  tb_->sd_medium().set_present(true);
  uint64_t resets_before = svc.replayer("mmc")->total_resets();
  EXPECT_EQ(Status::kQuarantined,
            svc.Invoke(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, &buf)).status());
  EXPECT_EQ(Status::kQuarantined,
            svc.RingPush(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, &buf)).status());
  EXPECT_EQ(resets_before, svc.replayer("mmc")->total_resets());
  EXPECT_EQ(0u, (*svc.Ring(*sid))->in_flight());

  // The only way out is a fresh session, which starts with a clean slate.
  EXPECT_EQ(Status::kOk, svc.CloseSession(*sid));
  Result<SessionId> fresh = svc.OpenSession("mmc");
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(svc.Invoke(*fresh, kMmcEntry, BlockArgs(kMmcRwRead, 8, &buf)).ok());
  EXPECT_EQ(1u, svc.quarantined_sessions());  // cumulative, not live count
}

TEST_F(ReplayServiceTest, QuarantineThresholdZeroDisablesTheLadder) {
  ReplayServiceConfig cfg;
  cfg.quarantine_threshold = 0;
  ReplayService svc(&tb_->tee(), kDeveloperKey, cfg);
  ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  Result<SessionId> sid = svc.OpenSession("mmc");
  ASSERT_TRUE(sid.ok());

  std::vector<uint8_t> buf;
  tb_->sd_medium().set_present(false);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(Status::kAborted,
              svc.Invoke(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, &buf)).status());
  }
  EXPECT_FALSE(svc.Stats(*sid)->quarantined);
  EXPECT_EQ(0u, svc.quarantined_sessions());
  tb_->sd_medium().set_present(true);
  EXPECT_TRUE(svc.Invoke(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, &buf)).ok());
}

// ---- TemplateStore unit tests (no machine required) ----

InteractionTemplate SynthTemplate(std::string name, std::string entry,
                                  std::vector<std::string> params, ConstraintAtom atom) {
  InteractionTemplate t;
  t.name = std::move(name);
  t.entry = std::move(entry);
  for (std::string& p : params) {
    t.params.push_back(ParamSpec{std::move(p), /*is_buffer=*/false});
  }
  t.initial.AddAtom(std::move(atom));
  return t;
}

ConstraintAtom InputEq(const char* input, uint64_t v) {
  return ConstraintAtom{Expr::Input(input), Cmp::kEq, Expr::Const(v)};
}

TEST(TemplateStoreTest, CandidateMissingScalarParamIsSkippedNotFatal) {
  // Regression: two templates register the same entry with different param
  // sets. Selection used to abort with kInvalidArg as soon as the scan hit the
  // candidate whose param was absent from the args; it must skip it and keep
  // scanning instead.
  DriverletPackage pkg;
  pkg.driverlet = "synth";
  pkg.templates.push_back(SynthTemplate("NeedsXY", "replay_synth", {"x", "y"}, InputEq("y", 1)));
  pkg.templates.push_back(SynthTemplate("NeedsX", "replay_synth", {"x"}, InputEq("x", 2)));
  TemplateStore store;
  ASSERT_EQ(Status::kOk, store.AddPackage(pkg));

  // No "y" in the args: NeedsXY is skipped, NeedsX still matches.
  Result<const InteractionTemplate*> sel = store.Select("synth", "replay_synth", {{"x", 2}});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ("NeedsX", (*sel)->name);

  // Both param sets satisfiable: the richer template matches on its constraint.
  sel = store.Select("synth", "replay_synth", {{"x", 7}, {"y", 1}});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ("NeedsXY", (*sel)->name);

  // Nothing covers the input: uncovered, not an argument error.
  EXPECT_EQ(Status::kNoTemplate, store.Select("synth", "replay_synth", {{"x", 9}}).status());
}

TEST(TemplateStoreTest, SelectIsScopedByDriverletAndEntry) {
  DriverletPackage a;
  a.driverlet = "alpha";
  a.templates.push_back(SynthTemplate("A", "replay_shared", {"x"}, InputEq("x", 1)));
  DriverletPackage b;
  b.driverlet = "beta";
  b.templates.push_back(SynthTemplate("B", "replay_shared", {"x"}, InputEq("x", 1)));
  TemplateStore store;
  ASSERT_EQ(Status::kOk, store.AddPackage(a));
  ASSERT_EQ(Status::kOk, store.AddPackage(b));

  Result<const InteractionTemplate*> sel = store.Select("beta", "replay_shared", {{"x", 1}});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ("B", (*sel)->name);
  EXPECT_EQ(Status::kNoTemplate, store.Select("alpha", "replay_none", {{"x", 1}}).status());
}

TEST(TemplateStoreTest, ReloadReplacesOnlyThatDriverlet) {
  DriverletPackage a;
  a.driverlet = "alpha";
  a.templates.push_back(SynthTemplate("Old", "replay_a", {"x"}, InputEq("x", 1)));
  DriverletPackage b;
  b.driverlet = "beta";
  b.templates.push_back(SynthTemplate("Keep", "replay_b", {"x"}, InputEq("x", 1)));
  TemplateStore store;
  ASSERT_EQ(Status::kOk, store.AddPackage(a));
  ASSERT_EQ(Status::kOk, store.AddPackage(b));
  const std::vector<const InteractionTemplate*> beta = store.templates("beta");
  ASSERT_EQ(1u, beta.size());

  DriverletPackage a2;
  a2.driverlet = "alpha";
  a2.templates.push_back(SynthTemplate("New", "replay_a2", {"x"}, InputEq("x", 1)));
  ASSERT_EQ(Status::kOk, store.AddPackage(a2));
  ASSERT_EQ(Status::kOk, store.AddPackage(a2));
  EXPECT_EQ(2u, store.package_count());
  // The old alpha entry is de-indexed; beta is untouched, down to its
  // template addresses.
  EXPECT_EQ(Status::kNoTemplate, store.Select("alpha", "replay_a", {{"x", 1}}).status());
  EXPECT_TRUE(store.Select("alpha", "replay_a2", {{"x", 1}}).ok());
  EXPECT_EQ(beta, store.templates("beta"));
  Result<const InteractionTemplate*> sel = store.Select("beta", "replay_b", {{"x", 1}});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(beta[0], *sel);
  EXPECT_EQ("Keep", beta[0]->name);
}

// AddPackage moves a package's templates into the store, so the pointers it
// hands out are the package's own template objects; registering and
// re-registering other driverlets moves none of them.
TEST(TemplateStoreTest, MovedInTemplatePointersSurviveOtherRegistrations) {
  DriverletPackage pkg;
  pkg.driverlet = "alpha";
  for (uint64_t i = 0; i < 4; ++i) {
    pkg.templates.push_back(
        SynthTemplate("A" + std::to_string(i), "replay_a", {"x"}, InputEq("x", i)));
  }
  const InteractionTemplate* moved = pkg.templates.data();
  TemplateStore store;
  ASSERT_EQ(Status::kOk, store.AddPackage(std::move(pkg)));
  const std::vector<const InteractionTemplate*> alpha = store.templates("alpha");
  ASSERT_EQ(4u, alpha.size());
  EXPECT_EQ(moved, alpha[0]) << "the templates were copied in";

  for (int i = 0; i < 12; ++i) {
    DriverletPackage other;
    other.driverlet = "other" + std::to_string(i % 4);
    other.templates.push_back(SynthTemplate("O", "replay_o", {"x"}, InputEq("x", 1)));
    ASSERT_EQ(Status::kOk, store.AddPackage(std::move(other)));
  }
  EXPECT_EQ(5u, store.package_count());
  EXPECT_EQ(alpha, store.templates("alpha"));
  for (uint64_t i = 0; i < 4; ++i) {
    Result<const InteractionTemplate*> sel = store.Select("alpha", "replay_a", {{"x", i}});
    ASSERT_TRUE(sel.ok());
    EXPECT_EQ(alpha[i], *sel);
    EXPECT_EQ("A" + std::to_string(i), alpha[i]->name);
  }
}

TEST(TemplateStoreTest, AmbiguousMatchKeepsFirst) {
  // Rows 0..9 carry sel==i, except row 7 repeats row 3's constraint. The scan
  // visits every row, rejects the eight that evaluate false, and first match
  // wins: sel=3 selects row 3 (row 7 only logs the ambiguity warning).
  DriverletPackage pkg;
  pkg.driverlet = "amb";
  for (uint64_t i = 0; i < 10; ++i) {
    pkg.templates.push_back(SynthTemplate("amb_" + std::to_string(i), "replay_amb", {"sel"},
                                          InputEq("sel", i == 7 ? 3 : i)));
  }
  TemplateStore store;
  ASSERT_EQ(Status::kOk, store.AddPackage(pkg));
  uint64_t scanned_before = store.candidates_scanned();
  std::vector<const InteractionTemplate*> rejected;
  Result<const InteractionTemplate*> sel =
      store.Select("amb", "replay_amb", {{"sel", 3}}, &rejected);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ("amb_3", (*sel)->name);
  EXPECT_EQ(10u, store.candidates_scanned() - scanned_before);
  EXPECT_EQ(8u, rejected.size());
}

}  // namespace
}  // namespace dlt
