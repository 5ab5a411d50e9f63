// End-to-end camera (VCHIQ/MMAL) driverlet tests (paper §6.3).
#include <gtest/gtest.h>

#include "src/core/replayer.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

class CameraDriverletTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dev_machine_ = new Rpi3Testbed(TestbedOptions{});
    Result<RecordCampaign> campaign = RecordCameraCampaign(dev_machine_);
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
    buf_.resize(Vc4Firmware::FrameBytes(1440) + 4096);
    img_size_.assign(4, 0);
  }

  Result<ReplayStats> Capture(uint64_t frames, uint64_t resolution) {
    ReplayArgs args;
    args.scalars = {{"frame", frames}, {"resolution", resolution}, {"buf_size", buf_.size()}};
    args.buffers["buf"] = BufferView{buf_.data(), buf_.size()};
    args.buffers["img_size"] = BufferView{img_size_.data(), img_size_.size()};
    return replayer_->Invoke(kCameraEntry, args);
  }

  uint32_t LastImgSize() const {
    uint32_t v = 0;
    std::memcpy(&v, img_size_.data(), 4);
    return v;
  }

  static Rpi3Testbed* dev_machine_;
  static RecordCampaign* campaign_;
  static std::vector<uint8_t>* sealed_;
  std::unique_ptr<Rpi3Testbed> deploy_;
  std::unique_ptr<Replayer> replayer_;
  std::vector<uint8_t> buf_;
  std::vector<uint8_t> img_size_;
};

Rpi3Testbed* CameraDriverletTest::dev_machine_ = nullptr;
RecordCampaign* CameraDriverletTest::campaign_ = nullptr;
std::vector<uint8_t>* CameraDriverletTest::sealed_ = nullptr;

TEST_F(CameraDriverletTest, NineRunsMergeIntoThreeTemplates) {
  // 3 frame counts x 3 resolutions, but the driver's state-transition path is
  // resolution-independent: the recorder merges duplicates (paper §6.3.2
  // reports exactly 3 templates: OneShot, ShortBurst, LongBurst).
  ASSERT_EQ(3u, campaign_->templates().size());
  std::set<std::string> names;
  for (const auto& t : campaign_->templates()) {
    names.insert(t.name);
  }
  EXPECT_TRUE(names.count("OneShot"));
  EXPECT_TRUE(names.count("ShortBurst"));
  EXPECT_TRUE(names.count("LongBurst"));
}

TEST_F(CameraDriverletTest, EventCountsScaleWithBurstLength) {
  auto total = [&](const std::string& name) {
    for (const auto& t : campaign_->templates()) {
      if (t.name == name) {
        return CountEvents(t).total();
      }
    }
    return -1;
  };
  EXPECT_LT(total("OneShot"), total("ShortBurst"));
  EXPECT_LT(total("ShortBurst"), total("LongBurst"));
}

TEST_F(CameraDriverletTest, TemplatesContainLiftedPolls) {
  // The slot-handler's open-coded wait loops must have been lifted into poll
  // meta events (paper §4.2, Challenge III).
  for (const auto& t : campaign_->templates()) {
    EXPECT_GT(CountEvents(t).meta, 0) << t.name;
  }
}

TEST_F(CameraDriverletTest, OneShotCaptureProducesValidJpeg) {
  Result<ReplayStats> r = Capture(1, 1080);
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  EXPECT_EQ("OneShot", r->template_name);
  uint32_t size = LastImgSize();
  EXPECT_EQ(Vc4Firmware::FrameBytes(1080), size);
  // JPEG integrity check, as the paper's validation scripts do (§7.2).
  ASSERT_GE(size, 4u);
  EXPECT_EQ(0xff, buf_[0]);
  EXPECT_EQ(0xd8, buf_[1]);
  EXPECT_EQ(0xff, buf_[size - 2]);
  EXPECT_EQ(0xd9, buf_[size - 1]);
}

TEST_F(CameraDriverletTest, TemplatesCoverAllResolutions) {
  // Largest, smallest, then the middle size: the firmware refills the storage
  // of its last frame, so every capture must still match the generator.
  for (uint64_t res : {1440u, 720u, 1080u}) {
    Result<ReplayStats> r = Capture(1, res);
    ASSERT_TRUE(r.ok()) << res << ": " << StatusName(r.status());
    EXPECT_EQ(Vc4Firmware::FrameBytes(static_cast<uint32_t>(res)), LastImgSize()) << res;
    std::vector<uint8_t> expect = Vc4Firmware::MakeFrame(0, static_cast<uint32_t>(res));
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), buf_.begin())) << res;
  }
}

TEST_F(CameraDriverletTest, ShortBurstCapturesTenFrames) {
  Result<ReplayStats> r = Capture(10, 720);
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  EXPECT_EQ("ShortBurst", r->template_name);
  EXPECT_EQ(10u, deploy_->vc4().frames_produced());
}

TEST_F(CameraDriverletTest, UnsupportedResolutionDiverges) {
  // VC4 rejects the resolution in its ack; the state-changing status check
  // fails, the replayer resets/retries and ultimately aborts.
  Result<ReplayStats> r = Capture(1, 480);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(Status::kAborted, r.status());
  EXPECT_TRUE(replayer_->last_report().valid);
}

TEST_F(CameraDriverletTest, UncoveredFrameCountRejected) {
  Result<ReplayStats> r = Capture(5, 720);
  EXPECT_EQ(Status::kNoTemplate, r.status());
}

TEST_F(CameraDriverletTest, FrameContentMatchesFirmwareGenerator) {
  ASSERT_TRUE(Capture(1, 720).ok());
  std::vector<uint8_t> expect = Vc4Firmware::MakeFrame(0, 720);
  ASSERT_GE(buf_.size(), expect.size());
  EXPECT_TRUE(std::equal(expect.begin(), expect.end(), buf_.begin()));
}

}  // namespace
}  // namespace dlt
