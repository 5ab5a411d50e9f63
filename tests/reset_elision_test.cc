// Tier-1 guards for reset elision (ResetPolicy::kUnlessClean): the recorder's
// clean-state proof and its merge rule, the per-device state digests behind
// it, when the replayer must still reset, and the invariant that makes
// skipping the reset safe — a template run on the device a flagged template
// left behind is indistinguishable from the same run after a soft reset.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/obs/telemetry.h"
#include "src/record/package_writer.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

// One request's arguments plus the buffers its views point into.
struct Request {
  ReplayArgs args;
  std::vector<uint8_t> in;
  std::vector<uint8_t> out;
  // MMC requests: a read fills |in|; a write's output is what lands on the
  // medium at [lba, lba + blocks).
  bool mmc_write = false;
  uint64_t lba = 0;
  uint32_t blocks = 0;
};

// Arguments that select template |name| of class |cls| while differing from
// the record samples: other block addresses and counts, random lengths, PCR
// indices, keys and payloads. |salt| varies the payload. Returns false for a
// template this table does not know.
bool MakeRequest(const std::string& cls, const std::string& name, uint64_t salt, Request* r) {
  *r = Request{};
  if (cls == "mmc") {
    bool read = name.rfind("RD_", 0) == 0;
    uint32_t n = static_cast<uint32_t>(std::stoul(name.substr(3)));
    r->blocks = n == 1 ? 1 : n - 1;
    r->lba = 8192;  // the record runs used block 2048; reads see earlier writes
    r->mmc_write = !read;
    r->in = PatternBuf(r->blocks * 512, salt);
    r->args.scalars = {{"rw", read ? kMmcRwRead : kMmcRwWrite},
                       {"blkcnt", r->blocks},
                       {"blkid", r->lba},
                       {"flag", 0}};
    r->args.buffers["buf"] = BufferView{r->in.data(), r->in.size()};
    return true;
  }
  if (cls == "ftpm") {
    std::map<std::string, std::pair<uint64_t, uint64_t>> kOrdArg = {
        {"GetRandom32", {kFtpmOrdGetRandom, 96 + 4 * salt}},
        {"PcrExtend", {kFtpmOrdPcrExtend, 5}},
        {"PcrRead", {kFtpmOrdPcrRead, 5}},
        {"Quote", {kFtpmOrdQuote, 0x21}},
    };
    auto it = kOrdArg.find(name);
    if (it == kOrdArg.end()) {
      return false;
    }
    r->in = PatternBuf(kFtpmPcrBytes, salt);
    r->out.assign(kFtpmMaxRandom, 0);
    r->args.scalars = {{"ord", it->second.first}, {"arg", it->second.second}};
    r->args.ro_buffers["req"] = ConstBufferView{r->in.data(), r->in.size()};
    r->args.buffers["rsp"] = BufferView{r->out.data(), r->out.size()};
    return true;
  }
  if (cls == "cryptoacc") {
    std::map<std::string, std::pair<uint64_t, uint64_t>> kOpLen = {
        {"Enc1", {kCaOpDecrypt, 1024}},  {"Enc2", {kCaOpEncrypt, 6144}},
        {"Enc3", {kCaOpDecrypt, 10240}}, {"Enc4", {kCaOpEncrypt, 14336}},
        {"Digest", {kCaOpDigest, 2048}},
    };
    auto it = kOpLen.find(name);
    if (it == kOpLen.end()) {
      return false;
    }
    uint64_t len = it->second.second;
    r->in = PatternBuf(len, salt);
    r->out.assign(len < kCaDigestBytes ? kCaDigestBytes : len, 0);
    r->args.scalars = {{"op", it->second.first}, {"key", 0x5eed0000 + salt}, {"len", len}};
    r->args.ro_buffers["buf"] = ConstBufferView{r->in.data(), r->in.size()};
    r->args.buffers["out"] = BufferView{r->out.data(), r->out.size()};
    return true;
  }
  return false;
}

std::vector<uint8_t> OutputOf(Deployment& d, const Request& r) {
  if (r.mmc_write) {
    std::vector<uint8_t> medium(static_cast<size_t>(r.blocks) * 512);
    EXPECT_EQ(Status::kOk, d.tb->sd_medium().Read(r.lba, r.blocks, medium.data()));
    return medium;
  }
  return r.out.empty() ? r.in : r.out;
}

// What a run of template B observably did on a fresh deployment after A.
struct Observation {
  Status status = Status::kOk;
  std::string template_name;
  bool reset_elided = false;
  int resets = 0;
  size_t events = 0;
  std::string measurement;
  uint64_t model_us = 0;
  std::vector<uint8_t> output;
  std::optional<uint64_t> digest;
};

// Invokes A then B on a fresh deployment of |pkg|; with |explicit_reset| the
// device is soft-reset between them, outside B's model-time window.
Observation RunPair(const std::vector<uint8_t>& pkg, const DriverletClassSpec& spec,
                    const InteractionTemplate& a, const InteractionTemplate& b,
                    bool explicit_reset) {
  Observation obs;
  Deployment d = MakeDeployment(pkg);
  Request ra, rb;
  EXPECT_TRUE(MakeRequest(spec.name, a.name, 1, &ra)) << a.name;
  EXPECT_TRUE(MakeRequest(spec.name, b.name, 2, &rb)) << b.name;
  Result<ReplayStats> first = d.service->Invoke(d.session, spec.entry, ra.args);
  EXPECT_TRUE(first.ok()) << StatusName(first.status());
  if (first.ok()) {
    EXPECT_EQ(a.name, first->template_name);
  }
  if (explicit_reset) {
    EXPECT_EQ(Status::kOk, d.tb->tee().SoftResetDevice(b.primary_device));
  }
  const uint64_t t0 = d.tb->clock().now_us();
  Result<ReplayStats> second = d.service->Invoke(d.session, spec.entry, rb.args);
  obs.model_us = d.tb->clock().now_us() - t0;
  obs.status = second.status();
  if (second.ok()) {
    obs.template_name = second->template_name;
    obs.reset_elided = second->reset_elided;
    obs.resets = second->resets;
    obs.events = second->events_executed;
    obs.measurement = second->measurement;
  }
  obs.output = OutputOf(d, rb);
  obs.digest = d.tb->DeviceStateDigest(b.primary_device);
  return obs;
}

Result<ReplayStats> InvokeTemplate(Deployment& d, const std::string& cls, const std::string& entry,
                                   const std::string& name, uint64_t salt) {
  Request r;
  EXPECT_TRUE(MakeRequest(cls, name, salt, &r)) << name;
  Result<ReplayStats> out = d.service->Invoke(d.session, entry, r.args);
  if (out.ok()) {
    EXPECT_EQ(name, out->template_name);
  }
  return out;
}

class ResetElisionTest : public ::testing::Test {
 protected:
  // One sealed package per registered class, recorded once for the suite.
  static void SetUpTestSuite() {
    packages_ = new std::map<std::string, std::vector<uint8_t>>();
    for (const DriverletClassSpec& spec : RegisteredDriverletClasses()) {
      (*packages_)[spec.name] = spec.build_package();
    }
  }
  static void TearDownTestSuite() {
    delete packages_;
    packages_ = nullptr;
  }

  static const std::vector<uint8_t>& Package(const std::string& cls) {
    return packages_->at(cls);
  }
  static DriverletPackage Opened(const std::string& cls) {
    const std::vector<uint8_t>& pkg = Package(cls);
    Result<DriverletPackage> opened = OpenPackage(pkg.data(), pkg.size(), kDeveloperKey);
    EXPECT_TRUE(opened.ok());
    return opened.ok() ? *opened : DriverletPackage{};
  }

  static std::map<std::string, std::vector<uint8_t>>* packages_;
};

std::map<std::string, std::vector<uint8_t>>* ResetElisionTest::packages_ = nullptr;

TEST_F(ResetElisionTest, RecorderFlagsEveryMmcFtpmCryptoaccTemplateAndNoCameraOrUsbTemplate) {
  const std::map<std::string, bool> kExpectClean = {
      {"mmc", true}, {"ftpm", true}, {"cryptoacc", true}, {"camera", false}, {"usb", false}};
  for (const DriverletClassSpec& spec : RegisteredDriverletClasses()) {
    auto want = kExpectClean.find(spec.name);
    ASSERT_NE(kExpectClean.end(), want) << "registered class without an expectation";
    DriverletPackage pkg = Opened(spec.name);
    ASSERT_FALSE(pkg.templates.empty()) << spec.name;
    for (const InteractionTemplate& t : pkg.templates) {
      EXPECT_EQ(want->second, t.leaves_clean_state) << spec.name << " " << t.name;
    }
  }
}

TEST_F(ResetElisionTest, ElidedResetMatchesExplicitResetForEveryFlaggedPair) {
  int pairs = 0;
  for (const DriverletClassSpec& spec : RegisteredDriverletClasses()) {
    DriverletPackage pkg = Opened(spec.name);
    for (const InteractionTemplate& a : pkg.templates) {
      if (!a.leaves_clean_state) {
        continue;
      }
      for (const InteractionTemplate& b : pkg.templates) {
        SCOPED_TRACE(std::string(spec.name) + ": " + a.name + " then " + b.name);
        Observation elided = RunPair(Package(spec.name), spec, a, b, /*explicit_reset=*/false);
        Observation reset = RunPair(Package(spec.name), spec, a, b, /*explicit_reset=*/true);
        ASSERT_EQ(Status::kOk, elided.status) << StatusName(elided.status);
        EXPECT_EQ(b.name, elided.template_name);
        EXPECT_TRUE(elided.reset_elided);
        EXPECT_EQ(0, elided.resets);
        // With the explicit reset in between, B still elides its own (A was
        // flagged): the two runs differ only in that one reset.
        EXPECT_EQ(elided.status, reset.status);
        EXPECT_EQ(elided.reset_elided, reset.reset_elided);
        EXPECT_EQ(elided.output, reset.output);
        EXPECT_EQ(elided.events, reset.events);
        EXPECT_EQ(elided.measurement, reset.measurement);
        EXPECT_EQ(elided.model_us, reset.model_us);
        ASSERT_TRUE(elided.digest.has_value());
        EXPECT_EQ(elided.digest, reset.digest);
        ++pairs;
      }
    }
  }
  EXPECT_EQ(141, pairs);  // mmc 10 x 10, ftpm 4 x 4, cryptoacc 5 x 5
}

TEST_F(ResetElisionTest, DirtyRecordRunYieldsUnflaggedTemplate) {
  // A capture leaves the VC4 connected with its frame sequence advanced, so
  // its StateDigest differs from the post-reset one and the run is unflagged.
  Rpi3Testbed dev{TestbedOptions{}};
  dev.ResetDevices();
  std::optional<uint64_t> clean = dev.vc4().StateDigest();
  Result<InteractionTemplate> cam = RecordCameraRun(&dev, "OneShot", 1, 720);
  ASSERT_TRUE(cam.ok());
  EXPECT_FALSE(cam->leaves_clean_state);
  EXPECT_NE(clean, dev.vc4().StateDigest());
  // A device without a digest (the dwc2 USB controller) never proves clean.
  Result<InteractionTemplate> usb = RecordUsbRun(&dev, "WR_8", kMmcRwWrite, 8, 2048);
  ASSERT_TRUE(usb.ok());
  EXPECT_FALSE(usb->leaves_clean_state);
  // The contrast: an MMC run ends exactly where the reset put the controller.
  Result<InteractionTemplate> mmc = RecordMmcRun(&dev, "WR_8", kMmcRwWrite, 8, 2048);
  ASSERT_TRUE(mmc.ok());
  EXPECT_TRUE(mmc->leaves_clean_state);
}

TEST_F(ResetElisionTest, InvokeAfterUnflaggedTemplateResets) {
  DriverletPackage pkg = Opened("mmc");
  for (InteractionTemplate& t : pkg.templates) {
    if (t.name == "WR_8") {
      t.leaves_clean_state = false;
    }
  }
  Deployment d = MakeDeployment(SealPackage(pkg.driverlet, pkg.templates, kDeveloperKey));
  ASSERT_NE(0u, d.session);
  const char* kSequence[] = {"WR_8", "WR_8", "RD_8", "WR_8"};
  const bool kElided[] = {false, false, false, true};
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    Result<ReplayStats> r = InvokeTemplate(d, "mmc", kMmcEntry, kSequence[i], i);
    ASSERT_TRUE(r.ok()) << StatusName(r.status());
    EXPECT_EQ(kElided[i], r->reset_elided);
    EXPECT_EQ(kElided[i] ? 0 : 1, r->resets);
  }

  // Camera templates are never flagged: every capture resets.
  Deployment cam = MakeDeployment(Package("camera"));
  ASSERT_NE(0u, cam.session);
  std::vector<uint8_t> buf, aux;
  ReplayArgs args;
  ASSERT_TRUE(CoveredArgsFor(kCameraEntry, 0, &buf, &aux, &args));
  for (int i = 0; i < 2; ++i) {
    Result<ReplayStats> r = cam.service->Invoke(cam.session, kCameraEntry, args);
    ASSERT_TRUE(r.ok()) << StatusName(r.status());
    EXPECT_FALSE(r->reset_elided);
    EXPECT_EQ(1, r->resets);
  }
}

TEST_F(ResetElisionTest, InvokeAfterFailedInvokeResets) {
  Deployment d = MakeDeployment(Package("mmc"));
  ASSERT_NE(0u, d.session);
  ASSERT_TRUE(InvokeTemplate(d, "mmc", kMmcEntry, "WR_8", 1).ok());

  // A selection miss never touches the device, but it is a failed invoke.
  Request uncovered;
  ASSERT_TRUE(MakeRequest("mmc", "WR_8", 2, &uncovered));
  uncovered.args.scalars["blkcnt"] = 0;
  EXPECT_EQ(Status::kNoTemplate,
            d.service->Invoke(d.session, kMmcEntry, uncovered.args).status());
  Result<ReplayStats> r = InvokeTemplate(d, "mmc", kMmcEntry, "WR_8", 3);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->reset_elided);
  EXPECT_EQ(1, r->resets);

  // An aborted invoke: the card vanishes, every attempt diverges.
  d.tb->sd_medium().set_present(false);
  EXPECT_EQ(Status::kAborted, InvokeTemplate(d, "mmc", kMmcEntry, "RD_8", 4).status());
  d.tb->sd_medium().set_present(true);
  r = InvokeTemplate(d, "mmc", kMmcEntry, "WR_8", 5);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->reset_elided);
  EXPECT_EQ(1, r->attempts);
  EXPECT_EQ(1, r->resets);
  r = InvokeTemplate(d, "mmc", kMmcEntry, "WR_8", 6);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->reset_elided);
}

TEST_F(ResetElisionTest, InvokeAfterDivergenceRetryResets) {
  Deployment d = MakeDeployment(Package("mmc"));
  ASSERT_NE(0u, d.session);
  ASSERT_TRUE(InvokeTemplate(d, "mmc", kMmcEntry, "WR_8", 1).ok());

  // One corrupted read of the EDM state register: the elided first attempt
  // diverges, the retry resets and succeeds.
  FaultInjector inj(&d.tb->machine());
  FaultPlan plan(42);
  plan.Add(FaultSpec{.kind = FaultKind::kMmioCorruptRead,
                     .device = d.tb->mmc_id(),
                     .reg_off = kSdEdm,
                     .max_faults = 1,
                     .arg = 0x1});
  ASSERT_EQ(Status::kOk, inj.Arm(plan));
  Result<ReplayStats> r = InvokeTemplate(d, "mmc", kMmcEntry, "RD_8", 2);
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  EXPECT_TRUE(r->reset_elided);
  EXPECT_EQ(2, r->attempts);
  EXPECT_EQ(1, r->resets);
  EXPECT_EQ(1u, inj.injected_total());

  // A success that needed a retry vouches for nothing: the next one resets.
  r = InvokeTemplate(d, "mmc", kMmcEntry, "WR_8", 3);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->reset_elided);
  EXPECT_EQ(1, r->resets);
  r = InvokeTemplate(d, "mmc", kMmcEntry, "WR_8", 4);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->reset_elided);
}

TEST_F(ResetElisionTest, PolicyAlwaysResetsEveryTemplateAndNeverResetsNone) {
  Deployment always = MakeDeployment(Package("ftpm"));
  always.replayer->set_reset_policy(ResetPolicy::kAlways);
  Deployment never = MakeDeployment(Package("ftpm"));
  never.replayer->set_reset_policy(ResetPolicy::kNever);
  for (int i = 0; i < 3; ++i) {
    Result<ReplayStats> a = InvokeTemplate(always, "ftpm", kFtpmEntry, "PcrRead", i);
    ASSERT_TRUE(a.ok());
    EXPECT_FALSE(a->reset_elided);
    EXPECT_EQ(1, a->resets);
    Result<ReplayStats> n = InvokeTemplate(never, "ftpm", kFtpmEntry, "PcrRead", i);
    ASSERT_TRUE(n.ok());
    EXPECT_TRUE(n->reset_elided);
    EXPECT_EQ(0, n->resets);
  }
  EXPECT_EQ(3u, always.replayer->total_resets());
  EXPECT_EQ(0u, always.replayer->total_resets_elided());
  EXPECT_EQ(0u, never.replayer->total_resets());
  EXPECT_EQ(3u, never.replayer->total_resets_elided());
}

TEST_F(ResetElisionTest, TelemetryAndSessionStatsCountPerformedAndElidedResets) {
  Deployment d = MakeDeployment(Package("cryptoacc"));
  ASSERT_NE(0u, d.session);
  Telemetry& tel = Telemetry::Get();
  tel.Enable();
  tel.Reset();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(InvokeTemplate(d, "cryptoacc", kCryptoaccEntry, "Enc2", i).ok());
  }
  EXPECT_EQ(1u, tel.metrics().counter("replay.soft_resets").value());
  EXPECT_EQ(2u, tel.metrics().counter("replay.soft_resets_elided").value());
  tel.Disable();
  tel.Reset();
  Result<SessionStats> st = d.service->Stats(d.session);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(1u, st->resets);
  EXPECT_EQ(2u, st->resets_elided);
  EXPECT_EQ(1u, d.replayer->total_resets());
  EXPECT_EQ(2u, d.replayer->total_resets_elided());
}

// ---- campaign merges AND the flag ----

TEST(CleanStateMergeTest, CryptoaccDec1MergesIntoEnc1AndAndsTheFlag) {
  Rpi3Testbed dev{TestbedOptions{}};
  Result<InteractionTemplate> enc1 = RecordCryptoaccRun(&dev, "Enc1", kCaOpEncrypt, 0xc0ffee01, 256);
  Result<InteractionTemplate> dec1 =
      RecordCryptoaccRun(&dev, "Dec1", kCaOpDecrypt, 0xc0ffee01, 4096);
  ASSERT_TRUE(enc1.ok() && dec1.ok());
  ASSERT_TRUE(enc1->leaves_clean_state && dec1->leaves_clean_state);

  RecordCampaign both_clean("cryptoacc");
  EXPECT_TRUE(both_clean.AddTemplate(*enc1));
  EXPECT_FALSE(both_clean.AddTemplate(*dec1));  // merged: same transition path
  EXPECT_TRUE(both_clean.templates()[0].leaves_clean_state);

  InteractionTemplate dirty = *dec1;
  dirty.leaves_clean_state = false;
  RecordCampaign one_dirty("cryptoacc");
  EXPECT_TRUE(one_dirty.AddTemplate(*enc1));
  EXPECT_FALSE(one_dirty.AddTemplate(dirty));
  ASSERT_EQ(1u, one_dirty.templates().size());
  EXPECT_EQ("Enc1", one_dirty.templates()[0].name);
  EXPECT_FALSE(one_dirty.templates()[0].leaves_clean_state);
}

TEST(CleanStateMergeTest, FtpmGetRandom128MergesIntoGetRandom32AndAndsTheFlag) {
  Rpi3Testbed dev{TestbedOptions{}};
  Result<InteractionTemplate> r32 = RecordFtpmRun(&dev, "GetRandom32", kFtpmOrdGetRandom, 32);
  Result<InteractionTemplate> r128 = RecordFtpmRun(&dev, "GetRandom128", kFtpmOrdGetRandom, 128);
  ASSERT_TRUE(r32.ok() && r128.ok());
  ASSERT_TRUE(r32->leaves_clean_state && r128->leaves_clean_state);

  RecordCampaign both_clean("ftpm");
  EXPECT_TRUE(both_clean.AddTemplate(*r32));
  EXPECT_FALSE(both_clean.AddTemplate(*r128));
  EXPECT_TRUE(both_clean.templates()[0].leaves_clean_state);

  // Either order: a dirty template absorbing a clean one stays dirty.
  InteractionTemplate dirty = *r32;
  dirty.leaves_clean_state = false;
  RecordCampaign dirty_first("ftpm");
  EXPECT_TRUE(dirty_first.AddTemplate(dirty));
  EXPECT_FALSE(dirty_first.AddTemplate(*r128));
  ASSERT_EQ(1u, dirty_first.templates().size());
  EXPECT_FALSE(dirty_first.templates()[0].leaves_clean_state);
}

// ---- device state digests ----

class StateDigestTest : public ::testing::Test {
 protected:
  StateDigestTest() : tb_(Options()) {}
  static TestbedOptions Options() {
    TestbedOptions opts;
    opts.probe_drivers = false;
    return opts;
  }
  Rpi3Testbed tb_;
};

TEST_F(StateDigestTest, MmcDigestIgnoresRequestLatchesButSeesResidue) {
  MmcController& mmc = tb_.mmc();
  mmc.SoftReset();
  std::optional<uint64_t> clean = mmc.StateDigest();
  ASSERT_TRUE(clean.has_value());
  // The latches every template writes first.
  mmc.MmioWrite32(kSdVdd, 0);
  mmc.MmioWrite32(kSdTout, 0x1234);
  mmc.MmioWrite32(kSdCdiv, 0x3e8);
  mmc.MmioWrite32(kSdHcfg, kSdHcfgWideIntBus | kSdHcfgBlockIrptEn);
  mmc.MmioWrite32(kSdHbct, 64);
  mmc.MmioWrite32(kSdHblc, 8);
  mmc.MmioWrite32(kSdArg, 4096);
  mmc.MmioWrite32(kSdCmd, 17);  // no NEW flag: a latch write, no command
  EXPECT_EQ(clean, mmc.StateDigest());
  // Residue: bytes in the data FIFO.
  mmc.MmioWrite32(kSdData, 0xdeadbeef);
  EXPECT_NE(clean, mmc.StateDigest());
  mmc.SoftReset();
  EXPECT_EQ(clean, mmc.StateDigest());
  // Residue: a command in flight (pending completion event).
  mmc.MmioWrite32(kSdCmd, kSdCmdNewFlag | 13);
  EXPECT_NE(clean, mmc.StateDigest());
  mmc.SoftReset();
  EXPECT_EQ(clean, mmc.StateDigest());
}

TEST_F(StateDigestTest, FtpmAndCryptoaccDigestsIgnoreRequestLatchesButSeeResidue) {
  FtpmDevice& ftpm = tb_.ftpm();
  ftpm.SoftReset();
  std::optional<uint64_t> ftpm_clean = ftpm.StateDigest();
  ASSERT_TRUE(ftpm_clean.has_value());
  ftpm.MmioWrite32(kFtpmOrd, kFtpmOrdPcrRead);
  ftpm.MmioWrite32(kFtpmArg, 3);
  ftpm.MmioWrite32(kFtpmReqLen, 4);
  ftpm.MmioWrite32(kFtpmData, 0x01020304);
  EXPECT_EQ(ftpm_clean, ftpm.StateDigest());
  ftpm.MmioWrite32(kFtpmGo, 1);  // command in flight
  EXPECT_NE(ftpm_clean, ftpm.StateDigest());
  ftpm.SoftReset();
  EXPECT_EQ(ftpm_clean, ftpm.StateDigest());

  CryptoaccDevice& ca = tb_.cryptoacc();
  ca.SoftReset();
  std::optional<uint64_t> ca_clean = ca.StateDigest();
  ASSERT_TRUE(ca_clean.has_value());
  ca.MmioWrite32(kCaRingBase, 0x100000);
  ca.MmioWrite32(kCaRingSize, 4);
  ca.MmioWrite32(kCaKey, 0xabcd);
  EXPECT_EQ(ca_clean, ca.StateDigest());
  ca.MmioWrite32(kCaCtrl, 0);  // engine disabled
  EXPECT_NE(ca_clean, ca.StateDigest());
  ca.SoftReset();
  EXPECT_EQ(ca_clean, ca.StateDigest());
}

TEST_F(StateDigestTest, DevicesWithoutDigestNeverProveClean) {
  EXPECT_FALSE(tb_.usb().StateDigest().has_value());
  EXPECT_FALSE(tb_.display().StateDigest().has_value());
  EXPECT_FALSE(tb_.touch().StateDigest().has_value());
  EXPECT_FALSE(tb_.uart().StateDigest().has_value());
}

}  // namespace
}  // namespace dlt
