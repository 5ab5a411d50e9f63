// End-to-end trusted-input (touch) driverlet tests, plus multi-trustlet device
// sharing: "their requests can be serialized without notable user experience
// degradation" (paper §2.1).
#include <gtest/gtest.h>

#include "src/core/replayer.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

class TouchDriverletTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dev_machine_ = new Rpi3Testbed(TestbedOptions{});
    Result<RecordCampaign> campaign = RecordTouchCampaign(dev_machine_);
    ASSERT_TRUE(campaign.ok()) << StatusName(campaign.status());
    sealed_ = new std::vector<uint8_t>(campaign->Seal(kDeveloperKey));
  }
  static void TearDownTestSuite() {
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

  Result<uint32_t> AwaitTap() {
    std::vector<uint8_t> evt(4, 0);
    ReplayArgs args;
    args.buffers["evt"] = BufferView{evt.data(), evt.size()};
    Result<ReplayStats> r = replayer_->Invoke(kTouchEntry, args);
    if (!r.ok()) {
      return r.status();
    }
    uint32_t sample = 0;
    std::memcpy(&sample, evt.data(), 4);
    return sample;
  }

  static Rpi3Testbed* dev_machine_;
  static std::vector<uint8_t>* sealed_;
  std::unique_ptr<Rpi3Testbed> deploy_;
  std::unique_ptr<Replayer> replayer_;
};

Rpi3Testbed* TouchDriverletTest::dev_machine_ = nullptr;
std::vector<uint8_t>* TouchDriverletTest::sealed_ = nullptr;

TEST_F(TouchDriverletTest, DeliversInjectedSample) {
  deploy_->touch().InjectTouch(123, 456, /*delay_us=*/2'000);
  Result<uint32_t> sample = AwaitTap();
  ASSERT_TRUE(sample.ok()) << StatusName(sample.status());
  EXPECT_EQ(TouchController::PackSample(123, 456), *sample);
}

TEST_F(TouchDriverletTest, SampleCoordinatesAreDynamic) {
  // Different coordinates than recorded (400, 240): data-plane values pass
  // through; only the state machine is pinned.
  for (uint32_t i = 0; i < 5; ++i) {
    deploy_->touch().InjectTouch(10 * i, 20 * i, 1'000);
    Result<uint32_t> sample = AwaitTap();
    ASSERT_TRUE(sample.ok()) << i;
    EXPECT_EQ(TouchController::PackSample(10 * i, 20 * i), *sample);
  }
}

TEST_F(TouchDriverletTest, NoTouchTimesOutAsDivergence) {
  replayer_->set_max_attempts(1);
  Result<uint32_t> sample = AwaitTap();
  EXPECT_FALSE(sample.ok());
  EXPECT_EQ(Status::kAborted, sample.status());
}

TEST_F(TouchDriverletTest, TwoTrustletsShareTheDeviceSerialized) {
  // Two trustlets taking turns on one replayer: the paper's coarse-grained
  // sharing. Each gets its own tap, no cross-talk.
  deploy_->touch().InjectTouch(1, 1, 1'000);
  Result<uint32_t> a = AwaitTap();  // trustlet A
  deploy_->touch().InjectTouch(2, 2, 1'000);
  Result<uint32_t> b = AwaitTap();  // trustlet B
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(TouchController::PackSample(1, 1), *a);
  EXPECT_EQ(TouchController::PackSample(2, 2), *b);
}

TEST_F(TouchDriverletTest, NormalWorldCannotSnoopInput) {
  Result<uint32_t> r = deploy_->machine().mem().Read32(World::kNormal, kTouchBase + kTouchData);
  EXPECT_EQ(Status::kPermissionDenied, r.status());
}

TEST_F(TouchDriverletTest, FifoLevelStatisticTolerated) {
  // Extra queued samples change the FIFO-level statistic input; the replay
  // must not diverge on it (it is not state-changing).
  deploy_->touch().InjectTouch(5, 5, 0);
  deploy_->touch().InjectTouch(6, 6, 0);
  deploy_->touch().InjectTouch(7, 7, 0);
  Result<uint32_t> first = AwaitTap();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(TouchController::PackSample(5, 5), *first);
  Result<uint32_t> second = AwaitTap();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(TouchController::PackSample(6, 6), *second);
}

}  // namespace
}  // namespace dlt
