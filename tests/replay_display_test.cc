// End-to-end display (trusted-UI) driverlet tests — the paper's third secure-IO
// use case built on the same record/replay machinery.
#include <gtest/gtest.h>

#include "src/core/replayer.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

class DisplayDriverletTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dev_machine_ = new Rpi3Testbed(TestbedOptions{});
    Result<RecordCampaign> campaign = RecordDisplayCampaign(dev_machine_);
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

  Result<ReplayStats> Blit(uint64_t x, uint64_t y, uint64_t w, uint64_t h,
                           std::vector<uint8_t>* bitmap) {
    ReplayArgs args;
    args.scalars = {{"x", x}, {"y", y}, {"w", w}, {"h", h}};
    args.buffers["buf"] = BufferView{bitmap->data(), bitmap->size()};
    return replayer_->Invoke(kDisplayEntry, args);
  }

  static Rpi3Testbed* dev_machine_;
  static RecordCampaign* campaign_;
  static std::vector<uint8_t>* sealed_;
  std::unique_ptr<Rpi3Testbed> deploy_;
  std::unique_ptr<Replayer> replayer_;
};

Rpi3Testbed* DisplayDriverletTest::dev_machine_ = nullptr;
RecordCampaign* DisplayDriverletTest::campaign_ = nullptr;
std::vector<uint8_t>* DisplayDriverletTest::sealed_ = nullptr;

TEST_F(DisplayDriverletTest, GeometriesMergeIntoOneTemplate) {
  // No geometry-dependent branches: the three record runs externalize the same
  // transition path and merge (the camera-resolution effect, generalized).
  EXPECT_EQ(1u, campaign_->templates().size());
}

TEST_F(DisplayDriverletTest, BlitLandsOnPanelAtArbitraryGeometry) {
  // 100x30 at (123, 45): never recorded; covered by the merged template.
  uint32_t w = 100;
  uint32_t h = 30;
  std::vector<uint8_t> bitmap(static_cast<size_t>(w) * h * 4);
  for (size_t i = 0; i + 3 < bitmap.size(); i += 4) {
    uint32_t px = 0x00c0ffee;
    std::memcpy(bitmap.data() + i, &px, 4);
  }
  Result<ReplayStats> r = Blit(123, 45, w, h, &bitmap);
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  EXPECT_EQ(0x00c0ffeeu, deploy_->display().PanelPixel(123, 45));
  EXPECT_EQ(0x00c0ffeeu, deploy_->display().PanelPixel(123 + w - 1, 45 + h - 1));
  EXPECT_EQ(0u, deploy_->display().PanelPixel(123 + w, 45));  // untouched outside
}

TEST_F(DisplayDriverletTest, PixelContentsExact) {
  uint32_t w = 16;
  uint32_t h = 16;
  std::vector<uint8_t> bitmap = PatternBuf(static_cast<size_t>(w) * h * 4, 0x1234);
  ASSERT_TRUE(Blit(0, 0, w, h, &bitmap).ok());
  for (uint32_t y = 0; y < h; ++y) {
    for (uint32_t x = 0; x < w; ++x) {
      uint32_t expect = 0;
      std::memcpy(&expect, bitmap.data() + (static_cast<size_t>(y) * w + x) * 4, 4);
      ASSERT_EQ(expect, deploy_->display().PanelPixel(x, y)) << x << "," << y;
    }
  }
}

TEST_F(DisplayDriverletTest, OffscreenGeometryRejectedAtSelection) {
  std::vector<uint8_t> bitmap(64 * 64 * 4, 0);
  Result<ReplayStats> r = Blit(kPanelWidth - 32, 0, 64, 64, &bitmap);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(Status::kNoTemplate, r.status());
}

TEST_F(DisplayDriverletTest, UndersizedBitmapRejected) {
  std::vector<uint8_t> bitmap(16, 0);  // far smaller than w*h*4
  Result<ReplayStats> r = Blit(0, 0, 64, 64, &bitmap);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(Status::kInvalidArg, r.status());  // executor buffer boundary check
}

TEST_F(DisplayDriverletTest, NormalWorldCannotReachPanel) {
  Result<uint32_t> r =
      deploy_->machine().mem().Read32(World::kNormal, kDisplayBase + kDispStatus);
  EXPECT_EQ(Status::kPermissionDenied, r.status());
}

TEST_F(DisplayDriverletTest, RepeatedBlitsAreStable) {
  for (int i = 0; i < 10; ++i) {
    uint32_t w = 8 + static_cast<uint32_t>(i) * 4;
    std::vector<uint8_t> bitmap(static_cast<size_t>(w) * w * 4,
                                static_cast<uint8_t>(0x40 + i));
    ASSERT_TRUE(Blit(static_cast<uint64_t>(i) * 16, static_cast<uint64_t>(i) * 8, w, w, &bitmap)
                    .ok())
        << i;
  }
  EXPECT_EQ(10u, deploy_->display().commits());
}

TEST_F(DisplayDriverletTest, ScanlineStatisticToleratedAcrossRuns) {
  // The beam-position read differs at every replay; it must never diverge.
  std::vector<uint8_t> bitmap(32 * 32 * 4, 0xaa);
  for (int i = 0; i < 5; ++i) {
    deploy_->clock().Advance(7'777);  // decorrelate from the recorded timing
    Result<ReplayStats> r = Blit(64, 64, 32, 32, &bitmap);
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(1, r->attempts) << "no divergence retry expected";
  }
}

}  // namespace
}  // namespace dlt
