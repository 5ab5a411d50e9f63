// End-to-end USB mass-storage driverlet tests (paper §6.2).
#include <gtest/gtest.h>

#include "src/core/replayer.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

class UsbDriverletTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dev_machine_ = new Rpi3Testbed(TestbedOptions{});
    Result<RecordCampaign> campaign = RecordUsbCampaign(dev_machine_);
    ASSERT_TRUE(campaign.ok()) << StatusName(campaign.status());
    campaign_ = new RecordCampaign(std::move(*campaign));
    sealed_ = new std::vector<uint8_t>(campaign_->Seal(kDeveloperKey));
  }
  static void TearDownTestSuite() {
    delete campaign_;
    delete dev_machine_;
    delete sealed_;
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
    return replayer_->Invoke(kUsbEntry, args);
  }

  static Rpi3Testbed* dev_machine_;
  static RecordCampaign* campaign_;
  static std::vector<uint8_t>* sealed_;
  std::unique_ptr<Rpi3Testbed> deploy_;
  std::unique_ptr<Replayer> replayer_;
};

Rpi3Testbed* UsbDriverletTest::dev_machine_ = nullptr;
RecordCampaign* UsbDriverletTest::campaign_ = nullptr;
std::vector<uint8_t>* UsbDriverletTest::sealed_ = nullptr;

TEST_F(UsbDriverletTest, CampaignProducesTenTemplates) {
  EXPECT_EQ(10u, campaign_->templates().size());
}

TEST_F(UsbDriverletTest, ReadAndWriteTemplatesHaveSimilarEventCounts) {
  // Paper §6.2.2: "the number of events are identical in a read template and
  // the corresponding write template" modulo descriptor values. Our write path
  // differs only by the sub-LBA RMW branch; whole-LBA templates match closely.
  auto find = [&](const std::string& name) -> const InteractionTemplate* {
    for (const auto& t : campaign_->templates()) {
      if (t.name == name) {
        return &t;
      }
    }
    return nullptr;
  };
  const InteractionTemplate* rd8 = find("RD_8");
  const InteractionTemplate* wr8 = find("WR_8");
  ASSERT_NE(nullptr, rd8);
  ASSERT_NE(nullptr, wr8);
  EXPECT_NEAR(CountEvents(*rd8).total(), CountEvents(*wr8).total(), 3);
}

TEST_F(UsbDriverletTest, WriteReadRoundTrip) {
  std::vector<uint8_t> data = PatternBuf(8 * 512, 0xdead);
  Result<ReplayStats> wr = Replay(kMmcRwWrite, 8, 800, data.data());
  ASSERT_TRUE(wr.ok()) << StatusName(wr.status());
  std::vector<uint8_t> readback(8 * 512, 0);
  Result<ReplayStats> rd = Replay(kMmcRwRead, 8, 800, readback.data());
  ASSERT_TRUE(rd.ok()) << StatusName(rd.status());
  EXPECT_EQ(data, readback);
}

TEST_F(UsbDriverletTest, SubLbaWriteUsesReadModifyWrite) {
  // Seed sectors 0..7 with a known pattern natively on the developer machine?
  // No — do it through the driverlet itself: write 8 sectors, then a 1-sector
  // driverlet write must preserve the other 7 (the RMW path, §6.2.3).
  std::vector<uint8_t> base = PatternBuf(8 * 512, 0x10);
  ASSERT_TRUE(Replay(kMmcRwWrite, 8, 1600, base.data()).ok());
  std::vector<uint8_t> one = PatternBuf(512, 0x22);
  Result<ReplayStats> wr1 = Replay(kMmcRwWrite, 1, 1600, one.data());
  ASSERT_TRUE(wr1.ok()) << StatusName(wr1.status());
  EXPECT_EQ("WR_1", wr1->template_name);
  std::vector<uint8_t> readback(8 * 512, 0);
  ASSERT_TRUE(Replay(kMmcRwRead, 8, 1600, readback.data()).ok());
  EXPECT_TRUE(std::equal(one.begin(), one.end(), readback.begin()));
  EXPECT_TRUE(std::equal(base.begin() + 512, base.end(), readback.begin() + 512));
}

TEST_F(UsbDriverletTest, CswTagRoundTripTolerated) {
  // The CBW serial number differs between record and replay (it derives from
  // timekeeping); the CSW echo check must still pass — non-state-changing
  // statistic inputs are tolerated in a principled way (paper §3, §6.2.3).
  std::vector<uint8_t> data = PatternBuf(512, 0x5a);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(Replay(kMmcRwWrite, 1, 2400, data.data()).ok()) << i;
  }
}

TEST_F(UsbDriverletTest, LargeTransfersCoverWholeStick) {
  std::vector<uint8_t> data = PatternBuf(256 * 512, 0x7);
  uint64_t far_lba = kUsbSectors - 256;
  Result<ReplayStats> wr = Replay(kMmcRwWrite, 256, far_lba, data.data());
  ASSERT_TRUE(wr.ok()) << StatusName(wr.status());
  EXPECT_EQ("WR_256", wr->template_name);
  std::vector<uint8_t> readback(256 * 512, 0);
  ASSERT_TRUE(Replay(kMmcRwRead, 256, far_lba, readback.data()).ok());
  EXPECT_EQ(data, readback);
}

TEST_F(UsbDriverletTest, TemplatesContainScsiCommandsInCbw) {
  // Static vetting of templates (paper §7.2 "statically vetting"): the CBW
  // descriptor writes must carry READ(10)/WRITE(10) opcodes in byte 15.
  bool saw_read10 = false;
  bool saw_write10 = false;
  for (const auto& t : campaign_->templates()) {
    for (const auto& e : t.events) {
      if (e.kind != EventKind::kShmWrite || e.value == nullptr || !e.value->is_const()) {
        continue;
      }
      uint32_t op = static_cast<uint32_t>(e.value->constant() >> 24);
      if (op == 0x28) {
        saw_read10 = true;
      }
      if (op == 0x2a) {
        saw_write10 = true;
      }
    }
  }
  EXPECT_TRUE(saw_read10);
  EXPECT_TRUE(saw_write10);
}

TEST_F(UsbDriverletTest, UncoveredCountRejected) {
  std::vector<uint8_t> data(48 * 512, 0);
  Result<ReplayStats> r = Replay(kMmcRwRead, 48, 0, data.data());
  EXPECT_EQ(Status::kNoTemplate, r.status());
}

}  // namespace
}  // namespace dlt
