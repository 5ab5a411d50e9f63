// Fault injection (paper §7.2): unplug the storage medium amid a replay run,
// disconnect the camera sensor, and verify divergence detection, reset-based
// retry, bounded give-up, and the rewound report with recording sites.
#include <gtest/gtest.h>

#include "src/core/replayer.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rpi3Testbed dev{TestbedOptions{}};
    Result<RecordCampaign> mmc = RecordMmcCampaign(&dev);
    ASSERT_TRUE(mmc.ok());
    mmc_pkg_ = new std::vector<uint8_t>(mmc->Seal(kDeveloperKey));
    Rpi3Testbed dev2{TestbedOptions{}};
    Result<RecordCampaign> cam = RecordCameraCampaign(&dev2);
    ASSERT_TRUE(cam.ok());
    cam_pkg_ = new std::vector<uint8_t>(cam->Seal(kDeveloperKey));
  }
  static void TearDownTestSuite() {
    delete mmc_pkg_;
    delete cam_pkg_;
  }

  void SetUp() override {
    TestbedOptions opts;
    opts.secure_io = true;
    opts.probe_drivers = false;
    deploy_ = std::make_unique<Rpi3Testbed>(opts);
  }

  static std::vector<uint8_t>* mmc_pkg_;
  static std::vector<uint8_t>* cam_pkg_;
  std::unique_ptr<Rpi3Testbed> deploy_;
};

std::vector<uint8_t>* FaultInjectionTest::mmc_pkg_ = nullptr;
std::vector<uint8_t>* FaultInjectionTest::cam_pkg_ = nullptr;

TEST_F(FaultInjectionTest, UnpluggedMediumDetectedWithReportAndSourceLines) {
  Replayer replayer(&deploy_->tee(), kDeveloperKey);
  ASSERT_EQ(Status::kOk, replayer.LoadPackage(mmc_pkg_->data(), mmc_pkg_->size()));

  // Unplug the card. The injected failure is persistent: the driverlet detects
  // the divergence, re-executes with reset, and eventually gives up.
  deploy_->sd_medium().set_present(false);
  std::vector<uint8_t> buf(256 * 512, 0);
  ReplayArgs args;
  args.scalars = {{"rw", kMmcRwRead}, {"blkcnt", 256}, {"blkid", 2048}, {"flag", 0}};
  args.buffers["buf"] = BufferView{buf.data(), buf.size()};
  Result<ReplayStats> r = replayer.Invoke(kMmcEntry, args);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(Status::kAborted, r.status());

  const DivergenceReport& report = replayer.last_report();
  EXPECT_TRUE(report.valid);
  EXPECT_EQ("RD_256", report.template_name);
  // The report names the recording site in the gold driver.
  EXPECT_NE(std::string::npos, report.file.find("bcm_sdhost_driver.cc"));
  EXPECT_GT(report.line, 0);
  // ... and the rewound event prefix, oldest first (paper §5).
  EXPECT_FALSE(report.rewound.empty());
  EXPECT_GE(replayer.total_resets(), 3u);  // reset before each of the attempts
}

TEST_F(FaultInjectionTest, TransientFaultRecoversByReset) {
  Replayer replayer(&deploy_->tee(), kDeveloperKey);
  ASSERT_EQ(Status::kOk, replayer.LoadPackage(mmc_pkg_->data(), mmc_pkg_->size()));

  // First execution diverges (card gone); before the retry the medium returns.
  // The soft reset recovers from the transient failure (paper §3.3 cause 2/3).
  deploy_->sd_medium().set_present(false);
  std::vector<uint8_t> buf(8 * 512, 0);
  ReplayArgs args;
  args.scalars = {{"rw", kMmcRwRead}, {"blkcnt", 8}, {"blkid", 64}, {"flag", 0}};
  args.buffers["buf"] = BufferView{buf.data(), buf.size()};

  // Use a one-shot hook: re-plug after the first divergence by running the
  // first attempt manually with max_attempts=1, then restoring the medium.
  replayer.set_max_attempts(1);
  Result<ReplayStats> first = replayer.Invoke(kMmcEntry, args);
  EXPECT_EQ(Status::kAborted, first.status());
  deploy_->sd_medium().set_present(true);
  replayer.set_max_attempts(3);
  Result<ReplayStats> second = replayer.Invoke(kMmcEntry, args);
  EXPECT_TRUE(second.ok()) << StatusName(second.status());
}

TEST_F(FaultInjectionTest, CameraSensorLossDivergesAndAborts) {
  Replayer replayer(&deploy_->tee(), kDeveloperKey);
  ASSERT_EQ(Status::kOk, replayer.LoadPackage(cam_pkg_->data(), cam_pkg_->size()));
  deploy_->vc4().set_sensor_connected(false);

  std::vector<uint8_t> buf(Vc4Firmware::FrameBytes(1440) + 4096);
  std::vector<uint8_t> img_size(4, 0);
  ReplayArgs args;
  args.scalars = {{"frame", 1}, {"resolution", 720}, {"buf_size", buf.size()}};
  args.buffers["buf"] = BufferView{buf.data(), buf.size()};
  args.buffers["img_size"] = BufferView{img_size.data(), img_size.size()};
  Result<ReplayStats> r = replayer.Invoke(kCameraEntry, args);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(Status::kAborted, r.status());
  EXPECT_TRUE(replayer.last_report().valid);
}

TEST_F(FaultInjectionTest, WriteFaultDoesNotCorruptOtherSectors) {
  Replayer replayer(&deploy_->tee(), kDeveloperKey);
  ASSERT_EQ(Status::kOk, replayer.LoadPackage(mmc_pkg_->data(), mmc_pkg_->size()));

  std::vector<uint8_t> data = PatternBuf(8 * 512, 0x42);
  ReplayArgs args;
  args.scalars = {{"rw", kMmcRwWrite}, {"blkcnt", 8}, {"blkid", 128}, {"flag", 0}};
  args.buffers["buf"] = BufferView{data.data(), data.size()};
  ASSERT_TRUE(replayer.Invoke(kMmcEntry, args).ok());

  deploy_->sd_medium().set_present(false);
  std::vector<uint8_t> other = PatternBuf(8 * 512, 0x43);
  args.scalars["blkid"] = 256;
  args.buffers["buf"] = BufferView{other.data(), other.size()};
  EXPECT_FALSE(replayer.Invoke(kMmcEntry, args).ok());
  deploy_->sd_medium().set_present(true);

  std::vector<uint8_t> readback(8 * 512, 0);
  args.scalars = {{"rw", kMmcRwRead}, {"blkcnt", 8}, {"blkid", 128}, {"flag", 0}};
  args.buffers["buf"] = BufferView{readback.data(), readback.size()};
  ASSERT_TRUE(replayer.Invoke(kMmcEntry, args).ok());
  EXPECT_EQ(data, readback);
}

}  // namespace
}  // namespace dlt
