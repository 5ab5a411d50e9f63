// Device-model and gold-driver tests: MMC controller + SD card FSM, DWC2 +
// mass storage, VC4/VCHIQ camera, display panel — exercised natively
// (developer machine).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "src/crypto/sha256.h"
#include "src/dev/display/display_controller.h"
#include "src/soc/machine.h"
#include "src/workload/rpi3_testbed.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

TEST(DisplayControllerTest, PanelReadsBlackBeforeFirstBlit) {
  // The panel is allocated by the first completed blit; replay_display_test
  // covers the drawn path.
  Machine m;
  DisplayController display(&m.mem(), &m.clock(), &m.irq(), &m.latency(), /*irq_line=*/0);
  EXPECT_EQ(0u, display.PanelPixel(0, 0));
  EXPECT_EQ(0u, display.PanelPixel(kPanelWidth - 1, 0));
  EXPECT_EQ(0u, display.PanelPixel(0, kPanelHeight - 1));
  EXPECT_EQ(0u, display.PanelPixel(kPanelWidth - 1, kPanelHeight - 1));
}

class NativeDeviceTest : public ::testing::Test {
 protected:
  NativeDeviceTest() : tb_(TestbedOptions{}) {}
  Rpi3Testbed tb_;
};

TEST_F(NativeDeviceTest, MmcProbeEnumeratesCard) {
  // Probe ran in the fixture; the card must be in transfer state with an RCA.
  EXPECT_EQ(SdCard::State::kTran, tb_.sd_card().state());
  EXPECT_NE(0, tb_.sd_card().rca());
}

TEST_F(NativeDeviceTest, MmcWriteReadDataIntegrity) {
  std::vector<uint8_t> data = PatternBuf(32 * 512, 0x99);
  ASSERT_EQ(Status::kOk, tb_.mmc_driver().WriteBlocks(512, 32, data.data()));
  std::vector<uint8_t> readback(32 * 512, 0);
  ASSERT_EQ(Status::kOk, tb_.mmc_driver().ReadBlocks(512, 32, readback.data()));
  EXPECT_EQ(data, readback);
  EXPECT_EQ(32u, tb_.sd_medium().sectors_written());
}

class MmcTransferSizeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MmcTransferSizeTest, RoundTripsAtEveryGranularity) {
  // Property sweep over transfer sizes, including non-recorded ones: the gold
  // driver itself must handle arbitrary counts.
  Rpi3Testbed tb{TestbedOptions{}};
  uint32_t count = GetParam();
  std::vector<uint8_t> data = PatternBuf(count * 512, count);
  ASSERT_EQ(Status::kOk, tb.mmc_driver().WriteBlocks(1024, count, data.data()));
  std::vector<uint8_t> readback(count * 512ull, 0);
  ASSERT_EQ(Status::kOk, tb.mmc_driver().ReadBlocks(1024, count, readback.data()));
  EXPECT_EQ(data, readback);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MmcTransferSizeTest,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 16, 31, 32, 33, 64, 100, 128, 200,
                                           256));

TEST_F(NativeDeviceTest, MmcDirectPioPathWorks) {
  // O_DIRECT flag: "the full driver shifts individual words of data blocks
  // from/to SDDATA" (paper §6.1.3 path 1).
  std::vector<uint8_t> data = PatternBuf(8 * 512, 0x31);
  ASSERT_EQ(Status::kOk,
            tb_.mmc_driver().Transfer(TValue(kMmcRwWrite), TValue(8), TValue(2048),
                                      TValue(kMmcFlagDirect), data.data(), data.size()));
  std::vector<uint8_t> readback(8 * 512, 0);
  ASSERT_EQ(Status::kOk,
            tb_.mmc_driver().Transfer(TValue(kMmcRwRead), TValue(8), TValue(2048),
                                      TValue(kMmcFlagDirect), readback.data(), readback.size()));
  EXPECT_EQ(data, readback);
}

TEST_F(NativeDeviceTest, MmcMisalignedRejectedByDriver) {
  std::vector<uint8_t> data(512);
  EXPECT_EQ(Status::kInvalidArg, tb_.mmc_driver().ReadBlocks(3, 1, data.data()));
}

TEST_F(NativeDeviceTest, MmcCardStatusReflectsFsm) {
  SdCard& card = tb_.sd_card();
  uint32_t st = card.StatusWord();
  EXPECT_EQ(static_cast<uint32_t>(SdCard::State::kTran), (st >> kSdStateShift) & 0xf);
  EXPECT_TRUE(st & kSdStatusReadyForData);
}

TEST_F(NativeDeviceTest, MmcIllegalCommandFlagged) {
  SdCard::CmdResult r = tb_.sd_card().Command(39, 0);
  EXPECT_TRUE(r.accepted);
  EXPECT_TRUE(r.response & kSdStatusIllegalCmd);
}

TEST_F(NativeDeviceTest, MmcSoftResetClearsResidueState) {
  // Leave residue: start a read and abandon it.
  auto& mem = tb_.machine().mem();
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kMmcBase + kSdHblc, 1));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kMmcBase + kSdArg, 0));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kMmcBase + kSdCmd, kSdCmdNewFlag | 17));
  tb_.clock().Advance(100'000);
  EXPECT_NE(0u, *mem.Read32(World::kNormal, kMmcBase + kSdEdm) & 0xfff0);
  tb_.mmc().SoftReset();
  uint32_t edm = *mem.Read32(World::kNormal, kMmcBase + kSdEdm);
  EXPECT_EQ(kSdEdmStateIdle, edm & 0xf);
  EXPECT_EQ(0u, (edm >> kSdEdmFifoShift) & kSdEdmFifoMask);
  EXPECT_EQ(SdCard::State::kTran, tb_.sd_card().state());
}

TEST_F(NativeDeviceTest, UsbProbeEnumeratesStick) {
  EXPECT_EQ(1, tb_.usb_storage().usb_address());
  EXPECT_EQ(1, tb_.usb_storage().configuration());
}

TEST_F(NativeDeviceTest, UsbWriteReadDataIntegrity) {
  std::vector<uint8_t> data = PatternBuf(64 * 512, 0x55);
  ASSERT_EQ(Status::kOk, tb_.usb_driver().WriteBlocks(256, 64, data.data()));
  std::vector<uint8_t> readback(64 * 512, 0);
  ASSERT_EQ(Status::kOk, tb_.usb_driver().ReadBlocks(256, 64, readback.data()));
  EXPECT_EQ(data, readback);
}

TEST_F(NativeDeviceTest, UsbSubLbaWritePreservesNeighbours) {
  std::vector<uint8_t> base = PatternBuf(8 * 512, 0x66);
  ASSERT_EQ(Status::kOk, tb_.usb_driver().WriteBlocks(64, 8, base.data()));
  std::vector<uint8_t> two = PatternBuf(2 * 512, 0x77);
  ASSERT_EQ(Status::kOk, tb_.usb_driver().WriteBlocks(64, 2, two.data()));
  std::vector<uint8_t> readback(8 * 512, 0);
  ASSERT_EQ(Status::kOk, tb_.usb_driver().ReadBlocks(64, 8, readback.data()));
  EXPECT_TRUE(std::equal(two.begin(), two.end(), readback.begin()));
  EXPECT_TRUE(std::equal(base.begin() + 1024, base.end(), readback.begin() + 1024));
}

TEST_F(NativeDeviceTest, UsbHfnumAdvancesWithTime) {
  auto& mem = tb_.machine().mem();
  uint32_t a = *mem.Read32(World::kNormal, kUsbBase + kHfNum);
  tb_.clock().Advance(1250);
  uint32_t b = *mem.Read32(World::kNormal, kUsbBase + kHfNum);
  EXPECT_NE(a, b);  // the time-derived statistic input (paper §6.2.3)
}

TEST_F(NativeDeviceTest, UsbDisconnectFailsTransfersWithXactErr) {
  tb_.usb_storage().set_connected(false);
  std::vector<uint8_t> data(512);
  EXPECT_NE(Status::kOk, tb_.usb_driver().ReadBlocks(0, 1, data.data()));
  tb_.usb_storage().set_connected(true);
}

TEST_F(NativeDeviceTest, CameraSerialCaptureProducesFrames) {
  std::vector<uint8_t> buf(Vc4Firmware::FrameBytes(1080) + 4096);
  std::vector<uint8_t> img_size(4);
  Status s = tb_.cam_driver().Capture(TValue(2), TValue(1080), buf.data(), buf.size(),
                                      TValue(buf.size()), img_size.data());
  ASSERT_EQ(Status::kOk, s);
  EXPECT_EQ(2u, tb_.vc4().frames_produced());
  uint32_t size = 0;
  std::memcpy(&size, img_size.data(), 4);
  EXPECT_EQ(Vc4Firmware::FrameBytes(1080), size);
  EXPECT_EQ(0xff, buf[0]);
  EXPECT_EQ(0xd8, buf[1]);
}

TEST_F(NativeDeviceTest, CameraPipelinedModeCoalescesIrqs) {
  // Native streaming: many frames, fewer doorbell interrupts per frame than
  // the serial path (paper §7.3.2: "the native driver processes coalesced IRQs").
  TestbedOptions serial_opts;
  Rpi3Testbed serial_tb{serial_opts};
  std::vector<uint8_t> buf(Vc4Firmware::FrameBytes(720) + 4096);
  std::vector<uint8_t> img_size(4);
  ASSERT_EQ(Status::kOk,
            serial_tb.cam_driver().Capture(TValue(10), TValue(720), buf.data(), buf.size(),
                                           TValue(buf.size()), img_size.data()));
  uint64_t serial_irqs = serial_tb.machine().irq().raise_count(kMailboxIrq);
  uint64_t serial_us = serial_tb.clock().now_us();

  TestbedOptions pipe_opts;
  pipe_opts.pipelined_camera = true;
  Rpi3Testbed pipe_tb{pipe_opts};
  ASSERT_EQ(Status::kOk,
            pipe_tb.cam_driver().Capture(TValue(10), TValue(720), buf.data(), buf.size(),
                                         TValue(buf.size()), img_size.data()));
  uint64_t pipe_irqs = pipe_tb.machine().irq().raise_count(kMailboxIrq);
  uint64_t pipe_us = pipe_tb.clock().now_us();

  EXPECT_EQ(10u, pipe_tb.vc4().frames_produced());
  EXPECT_LE(pipe_irqs, serial_irqs);
  EXPECT_LT(pipe_us, serial_us);  // pipelining beats serial wall-clock
}

TEST_F(NativeDeviceTest, CameraFramesDifferAcrossSequence) {
  std::vector<uint8_t> a = Vc4Firmware::MakeFrame(0, 720);
  std::vector<uint8_t> b = Vc4Firmware::MakeFrame(1, 720);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Vc4Firmware::MakeFrame(0, 720));  // deterministic
}

// What validation scripts and the replay oracles may rely on: the sizes that
// set model time and DMA lengths, the JPEG markers, a payload without 0xff,
// streams that are not shifted copies of each other, and the bytes themselves.
TEST_F(NativeDeviceTest, CameraFrameContract) {
  EXPECT_EQ(614'400u, Vc4Firmware::FrameBytes(720));
  EXPECT_EQ(1'382'400u, Vc4Firmware::FrameBytes(1080));
  EXPECT_EQ(2'457'600u, Vc4Firmware::FrameBytes(1440));
  constexpr size_t kWords = 4096;
  std::set<uint64_t> words;
  for (uint32_t res : {720u, 1080u, 1440u}) {
    for (uint32_t seq = 0; seq < 8; ++seq) {
      std::vector<uint8_t> f = Vc4Firmware::MakeFrame(seq, res);
      ASSERT_EQ(Vc4Firmware::FrameBytes(res), f.size());
      EXPECT_EQ((std::vector<uint8_t>{0xff, 0xd8, 0xff, 0xe0}),
                std::vector<uint8_t>(f.begin(), f.begin() + 4));
      EXPECT_EQ((std::vector<uint8_t>{0xff, 0xd9}), std::vector<uint8_t>(f.end() - 2, f.end()));
      EXPECT_EQ(0, std::count(f.begin() + 4, f.end() - 2, 0xff)) << "seq " << seq << " res " << res;
      for (size_t k = 0; seq < 3 && k < kWords; ++k) {
        uint64_t w = 0;
        std::memcpy(&w, f.data() + 4 + 8 * k, 8);
        words.insert(w);
      }
    }
  }
  EXPECT_EQ(3 * 3 * kWords, words.size());
  auto hex = [](const std::vector<uint8_t>& f) {
    return Sha256::HexDigest(Sha256::Hash(f.data(), f.size()));
  };
  EXPECT_EQ("ae1eba49189a29e6b0c8284a3cbf02734caafc0e41366159082ccb2a6d81ff8c",
            hex(Vc4Firmware::MakeFrame(0, 720)));
  EXPECT_EQ("f1782759cc8e0c283a089b16b14323edc2af8e92724bc01520bbea018499f07a",
            hex(Vc4Firmware::MakeFrame(7, 1440)));
}

TEST_F(NativeDeviceTest, Vc4SoftResetDropsSessionState) {
  std::vector<uint8_t> buf(Vc4Firmware::FrameBytes(720) + 4096);
  std::vector<uint8_t> img_size(4);
  ASSERT_EQ(Status::kOk, tb_.cam_driver().Capture(TValue(1), TValue(720), buf.data(), buf.size(),
                                                  TValue(buf.size()), img_size.data()));
  tb_.vc4().SoftReset();
  // After reset a capture without a new handshake cannot work; a full new
  // session (fresh queue + handshake) must.
  tb_.kern_io().ReleaseDma();
  ASSERT_EQ(Status::kOk, tb_.cam_driver().Capture(TValue(1), TValue(720), buf.data(), buf.size(),
                                                  TValue(buf.size()), img_size.data()));
}

TEST_F(NativeDeviceTest, BlockMediumSparseBacking) {
  BlockMedium medium(40'000'000);  // 40M sectors, no memory committed
  std::vector<uint8_t> sector(512, 0xab);
  ASSERT_EQ(Status::kOk, medium.WriteSector(39'999'999, sector.data()));
  std::vector<uint8_t> readback(512);
  ASSERT_EQ(Status::kOk, medium.ReadSector(39'999'999, readback.data()));
  EXPECT_EQ(sector, readback);
  ASSERT_EQ(Status::kOk, medium.ReadSector(12'345, readback.data()));
  EXPECT_EQ(std::vector<uint8_t>(512, 0), readback);
  EXPECT_EQ(Status::kOutOfRange, medium.ReadSector(40'000'000, readback.data()));
}

}  // namespace
}  // namespace dlt
