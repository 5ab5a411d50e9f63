// End-to-end fTPM driverlet tests (fourth class): the variable-length
// command/response pipe — record on the developer machine, replay in the TEE.
// Exercises the shapes the block/camera classes never hit: response lengths
// that are symbolic functions of the parameters, NV state (PCR bank, DRBG)
// that survives soft resets, and per-ordinal transition paths.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "src/core/integrity.h"
#include "src/core/replayer.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/workload/deploy_util.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"

namespace dlt {
namespace {

class FtpmDriverletTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dev_machine_ = new Rpi3Testbed(TestbedOptions{});
    Result<RecordCampaign> campaign = RecordFtpmCampaign(dev_machine_);
    ASSERT_TRUE(campaign.ok()) << StatusName(campaign.status());
    sealed_ = new std::vector<uint8_t>(campaign->Seal(PackageFormat::kText, kDeveloperKey));
    sealed_bin_ = new std::vector<uint8_t>(campaign->Seal(PackageFormat::kBinary, kDeveloperKey));
  }
  static void TearDownTestSuite() {
    delete dev_machine_;
    delete sealed_;
    delete sealed_bin_;
  }

  void SetUp() override { Redeploy(); }

  // Fresh deployment machine + replayer with the sealed package loaded.
  void Redeploy() {
    TestbedOptions opts;
    opts.secure_io = true;
    opts.probe_drivers = false;
    deploy_ = std::make_unique<Rpi3Testbed>(opts);
    replayer_ = std::make_unique<Replayer>(&deploy_->tee(), kDeveloperKey);
    ASSERT_EQ(Status::kOk, replayer_->LoadPackage(sealed_->data(), sealed_->size()));
  }

  Result<ReplayStats> Execute(uint64_t ord, uint64_t arg, const std::vector<uint8_t>& req,
                              std::vector<uint8_t>* rsp) {
    ReplayArgs args;
    args.scalars = {{"ord", ord}, {"arg", arg}};
    args.ro_buffers["req"] = ConstBufferView{req.data(), req.size()};
    args.buffers["rsp"] = BufferView{rsp->data(), rsp->size()};
    return replayer_->Invoke(kFtpmEntry, args);
  }

  const InteractionTemplate* FindTemplate(const std::string& name) {
    for (const InteractionTemplate* t : replayer_->templates()) {
      if (t->name == name) {
        return t;
      }
    }
    return nullptr;
  }

  static Rpi3Testbed* dev_machine_;
  static std::vector<uint8_t>* sealed_;
  static std::vector<uint8_t>* sealed_bin_;
  std::unique_ptr<Rpi3Testbed> deploy_;
  std::unique_ptr<Replayer> replayer_;
};

Rpi3Testbed* FtpmDriverletTest::dev_machine_ = nullptr;
std::vector<uint8_t>* FtpmDriverletTest::sealed_ = nullptr;
std::vector<uint8_t>* FtpmDriverletTest::sealed_bin_ = nullptr;

TEST_F(FtpmDriverletTest, CampaignDistillsFourTemplates) {
  // Five record runs, four templates: GetRandom128 merges into GetRandom32
  // (same transition path, the length is a symbolic operand).
  EXPECT_EQ(4u, replayer_->templates().size());
  EXPECT_NE(nullptr, FindTemplate("GetRandom32"));
  EXPECT_EQ(nullptr, FindTemplate("GetRandom128"));
  EXPECT_NE(nullptr, FindTemplate("PcrExtend"));
  EXPECT_NE(nullptr, FindTemplate("PcrRead"));
  EXPECT_NE(nullptr, FindTemplate("Quote"));
}

TEST_F(FtpmDriverletTest, GetRandomGeneralizesUnrecordedLengths) {
  // arg=64 was never recorded (32 and 128 were): the response length is a
  // symbolic function of arg, so the merged template covers it.
  std::vector<uint8_t> req(kFtpmPcrBytes, 0);
  std::vector<uint8_t> rsp(kFtpmMaxRandom, 0);
  Result<ReplayStats> r = Execute(kFtpmOrdGetRandom, 64, req, &rsp);
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  EXPECT_EQ("GetRandom32", r->template_name);

  // Exactly 64 bytes delivered: nonzero payload, untouched tail.
  bool payload_nonzero = false;
  for (size_t i = 0; i < 64; ++i) {
    payload_nonzero |= rsp[i] != 0;
  }
  EXPECT_TRUE(payload_nonzero);
  for (size_t i = 64; i < rsp.size(); ++i) {
    ASSERT_EQ(0, rsp[i]) << "byte past the response length was written at " << i;
  }

  // The DRBG advances: a second call yields a different block (data-plane
  // values are dynamic; only the state machine is pinned).
  std::vector<uint8_t> rsp2(kFtpmMaxRandom, 0);
  ASSERT_TRUE(Execute(kFtpmOrdGetRandom, 64, req, &rsp2).ok());
  EXPECT_NE(0, std::memcmp(rsp.data(), rsp2.data(), 64));

  // The cap itself is covered.
  std::vector<uint8_t> rsp3(kFtpmMaxRandom, 0);
  EXPECT_TRUE(Execute(kFtpmOrdGetRandom, kFtpmMaxRandom, req, &rsp3).ok());
}

TEST_F(FtpmDriverletTest, ConstraintsRejectUncoveredInputs) {
  std::vector<uint8_t> req(kFtpmPcrBytes, 0);
  std::vector<uint8_t> rsp(kFtpmMaxRandom, 0);
  // Zero-length, unaligned and over-cap get-random requests violate the
  // initial constraints distilled from the gold driver's parameter checks.
  EXPECT_EQ(Status::kNoTemplate, Execute(kFtpmOrdGetRandom, 0, req, &rsp).status());
  EXPECT_EQ(Status::kNoTemplate, Execute(kFtpmOrdGetRandom, 30, req, &rsp).status());
  EXPECT_EQ(Status::kNoTemplate, Execute(kFtpmOrdGetRandom, 300, req, &rsp).status());
  // Out-of-range PCR index.
  EXPECT_EQ(Status::kNoTemplate, Execute(kFtpmOrdPcrRead, kFtpmPcrCount, req, &rsp).status());
  // Unknown ordinal: no per-ordinal path matches.
  EXPECT_EQ(Status::kNoTemplate, Execute(9, 32, req, &rsp).status());
}

TEST_F(FtpmDriverletTest, PcrExtendThenReadMatchesNvOracle) {
  std::vector<uint8_t> digest(kFtpmPcrBytes);
  for (size_t i = 0; i < digest.size(); ++i) {
    digest[i] = static_cast<uint8_t>(i * 3 + 1);
  }
  std::vector<uint8_t> rsp(kFtpmMaxRandom, 0);
  Result<ReplayStats> r = Execute(kFtpmOrdPcrExtend, 3, digest, &rsp);
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  EXPECT_EQ("PcrExtend", r->template_name);

  // pcr' = H(0 || digest): the device bank holds the oracle value...
  std::array<uint8_t, kFtpmPcrBytes> zero{};
  std::array<uint8_t, kFtpmPcrBytes> want =
      FtpmDevice::ExtendMix(zero, digest.data(), digest.size());
  EXPECT_EQ(0, std::memcmp(deploy_->ftpm().pcr(3).data(), want.data(), want.size()));

  // ...and the read ordinal delivers it through the pipe.
  std::vector<uint8_t> read_rsp(kFtpmMaxRandom, 0);
  r = Execute(kFtpmOrdPcrRead, 3, digest, &read_rsp);
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  EXPECT_EQ("PcrRead", r->template_name);
  EXPECT_EQ(0, std::memcmp(read_rsp.data(), want.data(), want.size()));

  // Untouched PCRs stay zero.
  std::vector<uint8_t> other(kFtpmMaxRandom, 0);
  ASSERT_TRUE(Execute(kFtpmOrdPcrRead, 4, digest, &other).ok());
  EXPECT_EQ(0, std::memcmp(other.data(), zero.data(), zero.size()));
}

TEST_F(FtpmDriverletTest, NvStateSurvivesDeviceSoftReset) {
  // The fTPM's PCR bank lives in RPMB: a mailbox soft reset (the replayer's
  // recovery ladder does these) must not wipe it.
  std::vector<uint8_t> digest(kFtpmPcrBytes, 0xa5);
  std::vector<uint8_t> rsp(kFtpmMaxRandom, 0);
  ASSERT_TRUE(Execute(kFtpmOrdPcrExtend, 1, digest, &rsp).ok());

  deploy_->ResetDevices();

  std::array<uint8_t, kFtpmPcrBytes> zero{};
  std::array<uint8_t, kFtpmPcrBytes> want =
      FtpmDevice::ExtendMix(zero, digest.data(), digest.size());
  std::vector<uint8_t> read_rsp(kFtpmMaxRandom, 0);
  ASSERT_TRUE(Execute(kFtpmOrdPcrRead, 1, digest, &read_rsp).ok());
  EXPECT_EQ(0, std::memcmp(read_rsp.data(), want.data(), want.size()));
}

TEST_F(FtpmDriverletTest, QuoteEchoesNonceAndBindsPcrState) {
  std::vector<uint8_t> req(kFtpmPcrBytes, 0);
  for (uint32_t i = 0; i < kFtpmNonceBytes; ++i) {
    req[i] = static_cast<uint8_t>(0x40 + i);  // nonce in the first 16 bytes
  }
  std::vector<uint8_t> quote1(kFtpmMaxRandom, 0);
  Result<ReplayStats> r = Execute(kFtpmOrdQuote, 0x3, req, &quote1);
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  EXPECT_EQ("Quote", r->template_name);
  // The quote opens with the caller's nonce (freshness).
  EXPECT_EQ(0, std::memcmp(quote1.data(), req.data(), kFtpmNonceBytes));

  // Extending a selected PCR changes the quote body for the same nonce.
  std::vector<uint8_t> digest(kFtpmPcrBytes, 0x11);
  std::vector<uint8_t> rsp(kFtpmMaxRandom, 0);
  ASSERT_TRUE(Execute(kFtpmOrdPcrExtend, 0, digest, &rsp).ok());
  std::vector<uint8_t> quote2(kFtpmMaxRandom, 0);
  ASSERT_TRUE(Execute(kFtpmOrdQuote, 0x3, req, &quote2).ok());
  EXPECT_EQ(0, std::memcmp(quote2.data(), req.data(), kFtpmNonceBytes));
  EXPECT_NE(0, std::memcmp(quote1.data() + kFtpmNonceBytes, quote2.data() + kFtpmNonceBytes,
                           kFtpmPcrBytes));
}

// Two fresh deployments replay the same request byte for byte, and each clean
// run's measurement is the template's golden chain.
TEST_F(FtpmDriverletTest, EnginesAgreeByteForByteAndMatchGolden) {
  std::vector<uint8_t> out[2];
  std::string measurement[2];
  for (int i = 0; i < 2; ++i) {
    Redeploy();  // fresh DRBG per run, so the streams are comparable
    std::vector<uint8_t> req(kFtpmPcrBytes, 0);
    std::vector<uint8_t> rsp(kFtpmMaxRandom, 0);
    Result<ReplayStats> r = Execute(kFtpmOrdGetRandom, 32, req, &rsp);
    ASSERT_TRUE(r.ok()) << StatusName(r.status());
    out[i] = rsp;
    measurement[i] = r->measurement;

    // The clean run's chain equals the statically computed golden chain.
    const InteractionTemplate* tpl = FindTemplate(r->template_name);
    ASSERT_NE(nullptr, tpl);
    EXPECT_EQ(GoldenMeasurementHex(*tpl), r->measurement);
    EXPECT_TRUE(replayer_->last_measurement().valid);
    EXPECT_TRUE(replayer_->last_measurement().matches_golden);
  }
  EXPECT_EQ(out[0], out[1]);
  EXPECT_EQ(measurement[0], measurement[1]);
}

TEST_F(FtpmDriverletTest, BoundedStatusGlitchRecoversViaRetryLadder) {
  // One corrupted status read makes the device look busy; attempt 1 diverges
  // at the recorded not-busy branch, the soft reset + re-execution recovers.
  FaultInjector inj(&deploy_->machine());
  FaultPlan plan(42);
  plan.Add(FaultSpec{.kind = FaultKind::kMmioCorruptRead,
                     .device = deploy_->ftpm_id(),
                     .reg_off = kFtpmStatus,
                     .max_faults = 1,
                     .arg = kFtpmStatusBusy});
  ASSERT_EQ(Status::kOk, inj.Arm(plan));

  std::vector<uint8_t> req(kFtpmPcrBytes, 0);
  std::vector<uint8_t> rsp(kFtpmMaxRandom, 0);
  Result<ReplayStats> r = Execute(kFtpmOrdGetRandom, 32, req, &rsp);
  inj.Disarm();
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  EXPECT_EQ(2, r->attempts);
  EXPECT_EQ(1u, inj.injected_total());
}

TEST_F(FtpmDriverletTest, ServiceQuarantinesPersistentFault) {
  // Session admission + rung-0 integrity for the new class: a persistent MMIO
  // corruption diverges from golden and fences the session.
  ReplayServiceConfig cfg;
  cfg.enforce_integrity = true;
  cfg.quarantine_threshold = 0;
  Deployment d = MakeDeployment(*sealed_, cfg);
  ASSERT_NE(0u, d.session);
  d.replayer->set_max_attempts(1);

  FaultInjector inj(&d.tb->machine());
  FaultPlan plan(7);
  plan.Add(FaultSpec{.kind = FaultKind::kMmioCorruptRead,
                     .device = d.tb->ftpm_id(),
                     .arg = 0xff});
  ASSERT_EQ(Status::kOk, inj.Arm(plan));

  ReplayArgs args;
  std::vector<uint8_t> req(kFtpmPcrBytes, 0);
  std::vector<uint8_t> rsp(kFtpmMaxRandom, 0);
  args.scalars = {{"ord", kFtpmOrdGetRandom}, {"arg", 32}};
  args.ro_buffers["req"] = ConstBufferView{req.data(), req.size()};
  args.buffers["rsp"] = BufferView{rsp.data(), rsp.size()};
  Result<ReplayStats> r = d.service->Invoke(d.session, kFtpmEntry, args);
  inj.Disarm();
  ASSERT_FALSE(r.ok());

  Result<SessionStats> st = d.service->Stats(d.session);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(1u, st->measurement_mismatches);
  EXPECT_TRUE(st->quarantined);
  EXPECT_EQ(Status::kQuarantined, d.service->Invoke(d.session, kFtpmEntry, args).status());
}

TEST_F(FtpmDriverletTest, BinaryPackageFormatRoundTrips) {
  Replayer bin_replayer(&deploy_->tee(), kDeveloperKey);
  ASSERT_EQ(Status::kOk, bin_replayer.LoadPackage(sealed_bin_->data(), sealed_bin_->size()));
  EXPECT_EQ(4u, bin_replayer.templates().size());

  ReplayArgs args;
  std::vector<uint8_t> req(kFtpmPcrBytes, 0);
  std::vector<uint8_t> rsp(kFtpmMaxRandom, 0);
  args.scalars = {{"ord", kFtpmOrdGetRandom}, {"arg", 32}};
  args.ro_buffers["req"] = ConstBufferView{req.data(), req.size()};
  args.buffers["rsp"] = BufferView{rsp.data(), rsp.size()};
  EXPECT_TRUE(bin_replayer.Invoke(kFtpmEntry, args).ok());
}

TEST_F(FtpmDriverletTest, NormalWorldCannotTouchFtpm) {
  Result<uint32_t> r = deploy_->machine().mem().Read32(World::kNormal, kFtpmBase + kFtpmStatus);
  EXPECT_EQ(Status::kPermissionDenied, r.status());
}

}  // namespace
}  // namespace dlt
