// End-to-end MMC driverlet tests: record campaign on a developer machine,
// sealed package, replay on a secure-IO deployment machine (paper §6.1, §7.2).
#include <gtest/gtest.h>

#include "src/core/replayer.h"
#include "src/record/coverage.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

class MmcDriverletTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One shared record campaign: recording is deterministic and read-only
    // with respect to the tests below.
    dev_machine_ = new Rpi3Testbed(TestbedOptions{});
    Result<RecordCampaign> campaign = RecordMmcCampaign(dev_machine_);
    ASSERT_TRUE(campaign.ok()) << StatusName(campaign.status());
    campaign_ = new RecordCampaign(std::move(*campaign));
    sealed_ = new std::vector<uint8_t>(campaign_->Seal(kDeveloperKey));
  }
  static void TearDownTestSuite() {
    delete campaign_;
    delete dev_machine_;
    delete sealed_;
    campaign_ = nullptr;
    dev_machine_ = nullptr;
    sealed_ = nullptr;
  }

  void SetUp() override {
    TestbedOptions opts;
    opts.secure_io = true;
    opts.probe_drivers = false;
    deploy_ = std::make_unique<Rpi3Testbed>(opts);
    replayer_ = std::make_unique<Replayer>(&deploy_->tee(), kDeveloperKey);
    ASSERT_EQ(Status::kOk, replayer_->LoadPackage(sealed_->data(), sealed_->size()));
  }

  Result<ReplayStats> Replay(uint64_t rw, uint64_t blkcnt, uint64_t blkid, uint8_t* buf) {
    ReplayArgs args;
    args.scalars = {{"rw", rw}, {"blkcnt", blkcnt}, {"blkid", blkid}, {"flag", 0}};
    args.buffers["buf"] = BufferView{buf, static_cast<size_t>(blkcnt) * 512};
    return replayer_->Invoke(kMmcEntry, args);
  }

  static Rpi3Testbed* dev_machine_;
  static RecordCampaign* campaign_;
  static std::vector<uint8_t>* sealed_;
  std::unique_ptr<Rpi3Testbed> deploy_;
  std::unique_ptr<Replayer> replayer_;
};

Rpi3Testbed* MmcDriverletTest::dev_machine_ = nullptr;
RecordCampaign* MmcDriverletTest::campaign_ = nullptr;
std::vector<uint8_t>* MmcDriverletTest::sealed_ = nullptr;

TEST_F(MmcDriverletTest, CampaignProducesTenTemplates) {
  EXPECT_EQ(10u, campaign_->templates().size());
  for (const auto& t : campaign_->templates()) {
    EXPECT_EQ(kMmcEntry, t.entry);
    EXPECT_GT(t.events.size(), 10u) << t.name;
    EventBreakdown b = CountEvents(t);
    EXPECT_GT(b.input, 0) << t.name;
    EXPECT_GT(b.output, 0) << t.name;
    EXPECT_GT(b.meta, 0) << t.name;
  }
}

TEST_F(MmcDriverletTest, EventCountsGrowWithBlockCount) {
  auto total = [&](const std::string& name) {
    for (const auto& t : campaign_->templates()) {
      if (t.name == name) {
        return CountEvents(t).total();
      }
    }
    return -1;
  };
  EXPECT_LT(total("RD_8"), total("RD_32"));
  EXPECT_LT(total("RD_32"), total("RD_128"));
  EXPECT_LT(total("RD_128"), total("RD_256"));
  EXPECT_LT(total("WR_8"), total("WR_256"));
}

TEST_F(MmcDriverletTest, ReplayWriteThenReadRoundTrips) {
  std::vector<uint8_t> data = PatternBuf(8 * 512, 0xabc);
  Result<ReplayStats> wr = Replay(kMmcRwWrite, 8, 4096, data.data());
  ASSERT_TRUE(wr.ok()) << StatusName(wr.status());
  EXPECT_EQ("WR_8", wr->template_name);

  std::vector<uint8_t> readback(8 * 512, 0);
  Result<ReplayStats> rd = Replay(kMmcRwRead, 8, 4096, readback.data());
  ASSERT_TRUE(rd.ok()) << StatusName(rd.status());
  EXPECT_EQ("RD_8", rd->template_name);
  EXPECT_EQ(data, readback);
}

TEST_F(MmcDriverletTest, ReplayGeneralizesToNewAddressesAndCounts) {
  // New block address and a count (5) never recorded, but inside RW_8's
  // constraint region — the paper's expressiveness claim (§3.3).
  std::vector<uint8_t> data = PatternBuf(5 * 512, 0x77);
  Result<ReplayStats> wr = Replay(kMmcRwWrite, 5, 81920, data.data());
  ASSERT_TRUE(wr.ok()) << StatusName(wr.status());
  EXPECT_EQ("WR_8", wr->template_name);
  std::vector<uint8_t> readback(5 * 512, 0);
  ASSERT_TRUE(Replay(kMmcRwRead, 5, 81920, readback.data()).ok());
  EXPECT_EQ(data, readback);
}

TEST_F(MmcDriverletTest, SingleBlockUsesDedicatedTemplate) {
  std::vector<uint8_t> data = PatternBuf(512, 0x11);
  Result<ReplayStats> wr = Replay(kMmcRwWrite, 1, 2048, data.data());
  ASSERT_TRUE(wr.ok());
  EXPECT_EQ("WR_1", wr->template_name);
}

TEST_F(MmcDriverletTest, UncoveredBlockCountIsRejected) {
  // 20 blocks falls in the coverage hole between RW_8 (<=8) and RW_32 ((24,32]).
  std::vector<uint8_t> data(20 * 512, 0);
  Result<ReplayStats> r = Replay(kMmcRwRead, 20, 2048, data.data());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(Status::kNoTemplate, r.status());
}

TEST_F(MmcDriverletTest, MisalignedBlockIdIsRejected) {
  // The paper fed misaligned blkid manually and observed divergence from the
  // recorded path (§6.1.3); with constraints it is rejected at selection.
  std::vector<uint8_t> data(512, 0);
  Result<ReplayStats> r = Replay(kMmcRwRead, 1, 2049, data.data());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(Status::kNoTemplate, r.status());
}

TEST_F(MmcDriverletTest, OutOfRangeBlockIdIsRejected) {
  std::vector<uint8_t> data(512, 0);
  Result<ReplayStats> r = Replay(kMmcRwRead, 1, kSdSectors + 8, data.data());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(Status::kNoTemplate, r.status());
}

TEST_F(MmcDriverletTest, CoverageReportSpansRecordedRegions) {
  Coverage cov = campaign_->ComputeCoverage();
  EXPECT_TRUE(Covers(cov, "blkcnt", 1));
  EXPECT_TRUE(Covers(cov, "blkcnt", 8));
  EXPECT_TRUE(Covers(cov, "blkcnt", 256));
  EXPECT_FALSE(Covers(cov, "blkcnt", 20));
  EXPECT_FALSE(Covers(cov, "blkcnt", 300));
  EXPECT_TRUE(Covers(cov, "rw", kMmcRwRead));
  EXPECT_TRUE(Covers(cov, "rw", kMmcRwWrite));
  EXPECT_FALSE(cov.empty());
}

TEST_F(MmcDriverletTest, Cmd23OnlyOnReadPath) {
  // Paper §6.1.3: CMD23 (SET_BLOCK_COUNT) is used on the read path but not the
  // write path. Check the SDCMD writes in the templates.
  auto counts_cmd23 = [&](const InteractionTemplate& t) {
    int n = 0;
    for (const auto& e : t.events) {
      if (e.kind == EventKind::kRegWrite && e.reg_off == 0x00 && e.value != nullptr &&
          e.value->is_const() && (e.value->constant() & 0x3f) == 23) {
        ++n;
      }
    }
    return n;
  };
  for (const auto& t : campaign_->templates()) {
    if (t.name.rfind("RD_", 0) == 0) {
      EXPECT_EQ(1, counts_cmd23(t)) << t.name;
    } else {
      EXPECT_EQ(0, counts_cmd23(t)) << t.name;
    }
  }
}

TEST_F(MmcDriverletTest, ReplayRepeatsAreStable) {
  // Stress: repeated template invocations on fresh data (paper §7.2 stress
  // testing, scaled down).
  for (int i = 0; i < 20; ++i) {
    std::vector<uint8_t> data = PatternBuf(512, static_cast<uint64_t>(i));
    uint64_t blkid = 1024 + static_cast<uint64_t>(i) * 8;
    ASSERT_TRUE(Replay(kMmcRwWrite, 1, blkid, data.data()).ok()) << i;
    std::vector<uint8_t> readback(512, 0);
    ASSERT_TRUE(Replay(kMmcRwRead, 1, blkid, readback.data()).ok()) << i;
    ASSERT_EQ(data, readback) << i;
  }
}

TEST_F(MmcDriverletTest, NormalWorldCannotTouchSecureMmc) {
  // TZASC isolation on the deployment machine.
  Result<uint32_t> r = deploy_->machine().mem().Read32(World::kNormal, kMmcBase + kSdHsts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(Status::kPermissionDenied, r.status());
  EXPECT_GT(deploy_->machine().tzasc().denied_count(), 0u);
}

TEST_F(MmcDriverletTest, BinaryPackageRoundTripsToo) {
  // Resealing the campaign gives the fixture's bytes, compressed.
  PackageSizes sizes;
  std::vector<uint8_t> bin = campaign_->Seal(kDeveloperKey, &sizes);
  EXPECT_EQ(*sealed_, bin);
  Replayer r2(&deploy_->tee(), kDeveloperKey);
  ASSERT_EQ(Status::kOk, r2.LoadPackage(bin.data(), bin.size()));
  EXPECT_EQ(10u, r2.templates().size());
  EXPECT_LT(sizes.compressed, sizes.serialized);
}

TEST_F(MmcDriverletTest, StandaloneReplayerServesOneDriverlet) {
  // A standalone replayer serves the driverlet of its first package: a
  // package under any other name is refused and changes nothing.
  const Bindings read8 = {{"rw", kMmcRwRead}, {"blkcnt", 8}, {"blkid", 0}, {"flag", 0}};
  std::vector<const InteractionTemplate*> before = replayer_->templates();
  Result<const InteractionTemplate*> sel = replayer_->store().Select("mmc", kMmcEntry, read8);
  ASSERT_TRUE(sel.ok());

  DriverletPackage other;
  other.driverlet = "other";
  other.templates = campaign_->templates();
  EXPECT_EQ(Status::kInvalidArg, replayer_->LoadPackage(other));

  EXPECT_EQ("mmc", replayer_->driverlet_name());
  EXPECT_EQ(before, replayer_->templates());
  EXPECT_EQ(1u, replayer_->store().package_count());
  Result<const InteractionTemplate*> again = replayer_->store().Select("mmc", kMmcEntry, read8);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*sel, *again);
  std::vector<uint8_t> buf(8 * 512);
  Result<ReplayStats> rd = Replay(kMmcRwRead, 8, 0, buf.data());
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ((*sel)->name, rd->template_name);
}

void CollectSites(const std::vector<TemplateEvent>& events, std::vector<std::string>* files) {
  for (const TemplateEvent& e : events) {
    files->push_back(e.file);
    CollectSites(e.body, files);
  }
}

TEST_F(MmcDriverletTest, RecordedSourceLocationsAreRepoRelative) {
  // Recording sites name the gold driver's file relative to the repo root, so
  // a package's bytes do not depend on where the checkout lives.
  std::vector<std::string> files;
  for (const InteractionTemplate& t : campaign_->templates()) {
    CollectSites(t.events, &files);
  }
  ASSERT_FALSE(files.empty());
  for (const std::string& file : files) {
    ASSERT_TRUE(file.starts_with("src/")) << file;
  }
}

}  // namespace
}  // namespace dlt
