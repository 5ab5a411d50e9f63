// Device-model and gold-driver tests: MMC controller + SD card FSM, DWC2 +
// mass storage, VC4/VCHIQ camera, display panel — exercised natively
// (developer machine).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <set>

#include "src/crypto/sha256.h"
#include "src/dev/cryptoacc/cryptoacc_device.h"
#include "src/dev/display/display_controller.h"
#include "src/dev/vc4/frame_payload.h"
#include "src/fault/fault_injector.h"
#include "src/soc/machine.h"
#include "src/workload/rpi3_testbed.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

// A descriptor whose guest-written length is wild and whose source is outside
// RAM fails the batch with the error status and the interrupt. The model checks
// the range before it sizes a host buffer by that length, so it allocates
// nothing.
TEST(CryptoaccDeviceTest, WildLengthFromOutsideRamFailsTheBatch) {
  Machine machine;
  CryptoaccDevice dev(&machine.mem(), &machine.clock(), &machine.irq(), &machine.latency(),
                      kCryptoIrq);
  constexpr PhysAddr kRing = 0x1000;
  const uint32_t desc[6] = {kCaDescValid | kCaDescIrq | (kCaOpEncrypt << kCaOpShift),
                            0xc000'0000,  // src: past the end of RAM
                            0x2000, 0xffff'fff0, 0, 0};
  ASSERT_EQ(Status::kOk, machine.mem().DmaWrite(kRing, desc, sizeof(desc)));
  dev.MmioWrite32(kCaRingBase, kRing);
  dev.MmioWrite32(kCaRingSize, 4);
  dev.MmioWrite32(kCaHead, 1);  // doorbell
  EXPECT_EQ(kCaStatusBusy, dev.MmioRead32(kCaStatus));
  // The engine prices the batch by its length: about 12.6 s of virtual time.
  machine.clock().Advance(20'000'000);
  EXPECT_EQ(kCaStatusError, dev.MmioRead32(kCaStatus));
  EXPECT_TRUE(machine.irq().Pending(kCryptoIrq));
  EXPECT_EQ(0u, dev.descriptors_processed());
}

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

// Speaks VCHIQ to the VC4 directly, below the gold driver, so a test chooses
// the bulk request size and can reset the firmware between any two steps.
class Vc4Link {
 public:
  static constexpr PhysAddr kQueue = 0x0100'0000;  // outside the kernel and TEE pools
  static constexpr PhysAddr kDest = 0x0104'0000;

  struct Msg {
    VchiqMsgType type;
    uint32_t w[3];
  };

  explicit Vc4Link(Rpi3Testbed* tb) : tb_(tb) {}

  // Hands the VC4 a zeroed queue.
  void Attach() {
    std::memset(Ram(kQueue, kVchiqQueueBytes), 0, kVchiqQueueBytes);
    tb_->vc4().MmioWrite32(kMboxWrite, static_cast<uint32_t>(kQueue));
    slave_tx_ = 0;
    master_rx_ = 0;
  }

  void Send(VchiqMsgType type, std::vector<uint32_t> words) {
    uint32_t base = kVchiqSlaveBase + slave_tx_;
    Put32(base, static_cast<uint32_t>(type) << kMsgTypeShift);
    Put32(base + 4, static_cast<uint32_t>(words.size() * 4));
    for (size_t i = 0; i < words.size(); ++i) {
      Put32(base + kMsgHdrBytes + static_cast<uint32_t>(i * 4), words[i]);
    }
    slave_tx_ += kMsgHdrBytes + ((static_cast<uint32_t>(words.size()) * 4 + 7) & ~7u);
    Put32(kSzSlaveTxPos, slave_tx_);
    tb_->vc4().MmioWrite32(kBell2, 1);
  }

  // Sends |type|, lets the firmware run for |us| and returns its one reply.
  Msg Call(VchiqMsgType type, std::vector<uint32_t> words, uint64_t us = 10'000) {
    Send(type, std::move(words));
    tb_->clock().Advance(us);
    Msg m{VchiqMsgType::kPadding, {}};
    if (master_rx_ >= MasterTx()) {
      ADD_FAILURE() << "no reply";
      return m;
    }
    uint32_t base = kVchiqMasterBase + master_rx_;
    m.type = static_cast<VchiqMsgType>(Get32(base) >> kMsgTypeShift);
    uint32_t size = Get32(base + 4);
    for (uint32_t i = 0; i < 3 && i * 4 < size; ++i) {
      m.w[i] = Get32(base + kMsgHdrBytes + i * 4);
    }
    master_rx_ += kMsgHdrBytes + ((size + 7) & ~7u);
    EXPECT_EQ(master_rx_, MasterTx()) << "more than one reply";
    return m;
  }

  void Mmal(MmalMsgType type, uint32_t a, uint32_t b) {
    Msg m = Call(VchiqMsgType::kData, {static_cast<uint32_t>(type), a, b});
    EXPECT_EQ(static_cast<uint32_t>(type) | kMmalReplyFlag, m.w[0]);
    EXPECT_EQ(0u, m.w[1]) << "status";
  }

  // A fresh queue, the VCHIQ handshake and a camera configured for |res|.
  void OpenCamera(uint32_t res) {
    Attach();
    EXPECT_EQ(VchiqMsgType::kConnect, Call(VchiqMsgType::kConnect, {}).type);
    EXPECT_EQ(VchiqMsgType::kOpenAck, Call(VchiqMsgType::kOpen, {}).type);
    Mmal(MmalMsgType::kComponentCreate, kMmalCameraComponent, 0);
    Mmal(MmalMsgType::kComponentEnable, 0, 0);
    Mmal(MmalMsgType::kPortParamSet, kMmalParamResolution, res);
    Mmal(MmalMsgType::kPortEnable, 0, 0);
  }

  // Captures one frame, letting the firmware run for |us|; returns
  // BUFFER_DONE's {img_size, seq}. A first capture at 1440p takes 3.3 s.
  std::pair<uint32_t, uint32_t> Capture(uint64_t us = 3'000'000) {
    Msg m = Call(VchiqMsgType::kData, {static_cast<uint32_t>(MmalMsgType::kCapture), 0, 0}, us);
    EXPECT_EQ(static_cast<uint32_t>(MmalMsgType::kBufferDone) | kMmalReplyFlag, m.w[0]);
    return {m.w[1], m.w[2]};
  }

  // Bulk-receives the captured frame's first |req| bytes into |dest|; returns
  // BULK_RX_DONE's {actual, status}.
  std::pair<uint32_t, uint32_t> BulkRx(uint32_t req, uint32_t dest = kDest) {
    Msg m = Call(VchiqMsgType::kBulkRx, {dest, req});
    EXPECT_EQ(VchiqMsgType::kBulkRxDone, m.type);
    return {m.w[0], m.w[1]};
  }

  uint8_t* Ram(PhysAddr a, uint64_t n) { return tb_->machine().mem().RamPtr(a, n); }
  uint32_t MasterTx() { return Get32(kSzMasterTxPos); }

 private:
  void Put32(uint32_t off, uint32_t v) { std::memcpy(Ram(kQueue + off, 4), &v, 4); }
  uint32_t Get32(uint32_t off) {
    uint32_t v = 0;
    std::memcpy(&v, Ram(kQueue + off, 4), 4);
    return v;
  }

  Rpi3Testbed* tb_;
  uint32_t slave_tx_ = 0;
  uint32_t master_rx_ = 0;
};

// The firmware generates each frame into the bulk transfer's destination:
// a request of n bytes writes exactly the frame's first n bytes, in one
// bus-master write the fault plane sees whole. The write lands lazily, so
// the test takes the RAM pointer again after each bulk receive and before
// each memset.
TEST_F(NativeDeviceTest, BulkTransferWritesFramePrefixInPlace) {
  const uint32_t full = Vc4Firmware::FrameBytes(720);
  const uint32_t req = full / 3 + 5;  // ends inside a payload word
  Vc4Link link(&tb_);
  ASSERT_NE(nullptr, link.Ram(Vc4Link::kDest, full + 64));
  auto dest = [&] { return link.Ram(Vc4Link::kDest, full + 64); };
  auto expect_prefix = [&](uint32_t seq, uint32_t n) {
    std::vector<uint8_t> frame = Vc4Firmware::MakeFrame(seq, 720);
    uint8_t* d = dest();
    EXPECT_TRUE(std::equal(frame.begin(), frame.begin() + n, d)) << "seq " << seq;
    EXPECT_EQ(full + 64 - n, static_cast<size_t>(std::count(d + n, d + full + 64, 0x5a)))
        << "bytes past the request were written";
  };
  link.OpenCamera(720);

  std::memset(dest(), 0x5a, full + 64);
  EXPECT_EQ(std::make_pair(full, 0u), link.Capture());
  EXPECT_EQ(std::make_pair(req, 0u), link.BulkRx(req));
  expect_prefix(0, req);

  std::memset(dest(), 0x5a, full + 64);
  EXPECT_EQ(std::make_pair(full, 1u), link.Capture());
  EXPECT_EQ(std::make_pair(full, 0u), link.BulkRx(full));
  expect_prefix(1, full);

  // Windows B and C lie inside A and each misses one end of it, so a single
  // match in all three means one write of exactly [kDest, kDest + req).
  FaultInjector inj(&tb_.machine());
  FaultPlan plan(7);
  plan.Add(FaultSpec{.kind = FaultKind::kBusCorruptWrite, .addr = Vc4Link::kDest, .addr_size = req});
  plan.Add(FaultSpec{.kind = FaultKind::kBusCorruptWrite, .addr = Vc4Link::kDest + 1,
                     .addr_size = req - 1});
  plan.Add(FaultSpec{.kind = FaultKind::kBusCorruptWrite, .addr = Vc4Link::kDest,
                     .addr_size = req - 1});
  ASSERT_EQ(Status::kOk, inj.Arm(plan));
  std::memset(dest(), 0x5a, full + 64);
  EXPECT_EQ(std::make_pair(full, 2u), link.Capture());
  EXPECT_EQ(std::make_pair(req, 0u), link.BulkRx(req));
  inj.Disarm();
  EXPECT_EQ(1u, inj.opportunities());
  EXPECT_EQ(1u, inj.injected(FaultKind::kBusCorruptWrite));
  std::vector<uint8_t> frame = Vc4Firmware::MakeFrame(2, 720);
  uint8_t* d = dest();
  size_t corrupted = 0;
  for (uint32_t i = 0; i < req; ++i) {
    corrupted += d[i] != frame[i];
  }
  EXPECT_GE(corrupted, 1u);  // the hook got the bytes in RAM
  EXPECT_LE(corrupted, 2u);
  EXPECT_EQ(full + 64 - req, static_cast<size_t>(std::count(d + req, d + full + 64, 0x5a)));
}

// With no fault hook, a bulk receive generates its frame once, straight into
// the buffer that reads it: RAM receives no copy until an access needs the
// bytes in place.
TEST_F(NativeDeviceTest, BulkReceiveGeneratesFrameOnceIntoItsReader) {
  const uint32_t full = Vc4Firmware::FrameBytes(720);
  Vc4Link link(&tb_);
  uint8_t* before = link.Ram(Vc4Link::kDest, full);  // RAM as it stands, taken before the transfer
  ASSERT_NE(nullptr, before);
  std::memset(before, 0x5a, full);
  link.OpenCamera(720);
  EXPECT_EQ(std::make_pair(full, 0u), link.Capture());
  EXPECT_EQ(std::make_pair(full, 0u), link.BulkRx(full));

  const std::vector<uint8_t> frame = Vc4Firmware::MakeFrame(0, 720);
  std::vector<uint8_t> got(full);
  ASSERT_EQ(Status::kOk,
            tb_.machine().mem().ReadBytes(World::kNormal, Vc4Link::kDest, got.data(), full));
  EXPECT_EQ(frame, got);
  EXPECT_EQ(full, static_cast<size_t>(std::count(before, before + full, 0x5a)))
      << "the frame was written to RAM as well as to its reader";

  // Taking the pointer again lands the frame in RAM.
  uint8_t* dest = link.Ram(Vc4Link::kDest, full);
  EXPECT_TRUE(std::equal(frame.begin(), frame.end(), dest));
}

// Frames of three sizes land at one address. A smaller frame after a larger
// one leaves the larger frame's tail pending instead of writing it out, and
// the next larger frame drops that tail, so bulk receives at 1440, 720 and
// 1440p leave RAM untouched while every reader gets its frame.
TEST_F(NativeDeviceTest, StepDownBulkReceivesLeaveRamUntouched) {
  const uint32_t big = Vc4Firmware::FrameBytes(1440);
  Vc4Link link(&tb_);
  uint8_t* before = link.Ram(Vc4Link::kDest, big);  // RAM as it stands, taken before the transfers
  ASSERT_NE(nullptr, before);
  std::memset(before, 0x5a, big);
  link.OpenCamera(1440);
  const uint32_t kRes[] = {1440, 720, 1440};
  for (uint32_t seq = 0; seq < 3; ++seq) {
    SCOPED_TRACE(seq);
    link.Mmal(MmalMsgType::kPortParamSet, kMmalParamResolution, kRes[seq]);
    const uint32_t full = Vc4Firmware::FrameBytes(kRes[seq]);
    EXPECT_EQ(std::make_pair(full, seq), link.Capture(/*us=*/4'000'000));
    EXPECT_EQ(std::make_pair(full, 0u), link.BulkRx(full));
    std::vector<uint8_t> got(full);
    ASSERT_EQ(Status::kOk,
              tb_.machine().mem().ReadBytes(World::kNormal, Vc4Link::kDest, got.data(), full));
    EXPECT_EQ(Vc4Firmware::MakeFrame(seq, kRes[seq]), got);
  }
  // No frame reached RAM; taking the pointer lands the last one, which
  // covers the first one's tail.
  EXPECT_EQ(big, static_cast<size_t>(std::count(before, before + big, 0x5a)))
      << "a frame was written to RAM as well as to its reader";
  uint8_t* dest = link.Ram(Vc4Link::kDest, big);
  const std::vector<uint8_t> last = Vc4Firmware::MakeFrame(2, 1440);
  EXPECT_TRUE(std::equal(last.begin(), last.end(), dest));
}

// Between a 1440p and a 720p frame at one address, a reader past the 720p
// frame still sees the 1440p frame's tail, generated from the pending piece.
TEST_F(NativeDeviceTest, StepDownBulkReceiveKeepsOlderTailReadable) {
  const uint32_t big = Vc4Firmware::FrameBytes(1440);
  const uint32_t small = Vc4Firmware::FrameBytes(720);
  Vc4Link link(&tb_);
  uint8_t* before = link.Ram(Vc4Link::kDest, big);
  ASSERT_NE(nullptr, before);
  std::memset(before, 0x5a, big);
  link.OpenCamera(1440);
  EXPECT_EQ(std::make_pair(big, 0u), link.Capture(/*us=*/4'000'000));
  EXPECT_EQ(std::make_pair(big, 0u), link.BulkRx(big));
  link.Mmal(MmalMsgType::kPortParamSet, kMmalParamResolution, 720);
  EXPECT_EQ(std::make_pair(small, 1u), link.Capture());
  EXPECT_EQ(std::make_pair(small, 0u), link.BulkRx(small));

  const std::vector<uint8_t> first = Vc4Firmware::MakeFrame(0, 1440);
  std::vector<uint8_t> tail(big - small);
  ASSERT_EQ(Status::kOk, tb_.machine().mem().ReadBytes(World::kNormal, Vc4Link::kDest + small,
                                                       tail.data(), tail.size()));
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), first.begin() + small));
  EXPECT_EQ(big, static_cast<size_t>(std::count(before, before + big, 0x5a)));
  // Landing writes both: the 720p frame, then the 1440p frame's tail.
  uint8_t* dest = link.Ram(Vc4Link::kDest, big);
  const std::vector<uint8_t> second = Vc4Firmware::MakeFrame(1, 720);
  EXPECT_TRUE(std::equal(second.begin(), second.end(), dest));
  EXPECT_TRUE(std::equal(first.begin() + small, first.end(), dest + small));
}

// BULK_RX_DONE reports what the transfer moved: nothing, with status 1, when
// the destination is not RAM, so the driver's img_size check can fire.
TEST_F(NativeDeviceTest, BulkReceiveOutsideRamMovesNothing) {
  const uint32_t full = Vc4Firmware::FrameBytes(720);
  const uint32_t ram_tail = static_cast<uint32_t>(kRamBase + kRamSize - 64);
  Vc4Link link(&tb_);
  uint8_t* dest = link.Ram(Vc4Link::kDest, full);
  uint8_t* ram_end = link.Ram(ram_tail, 64);
  ASSERT_NE(nullptr, dest);
  ASSERT_NE(nullptr, ram_end);
  std::memset(dest, 0x5a, full);
  std::memset(ram_end, 0x5a, 64);
  link.OpenCamera(720);

  EXPECT_EQ(std::make_pair(full, 0u), link.Capture());
  EXPECT_EQ(std::make_pair(0u, 1u), link.BulkRx(full, 0xc5bc'0000));
  EXPECT_EQ(std::make_pair(full, 1u), link.Capture());
  EXPECT_EQ(std::make_pair(0u, 1u), link.BulkRx(full, ram_tail));  // runs off RAM
  ram_end = link.Ram(ram_tail, 64);
  dest = link.Ram(Vc4Link::kDest, full);
  EXPECT_EQ(64, std::count(ram_end, ram_end + 64, 0x5a)) << "a failed transfer wrote RAM";
  EXPECT_EQ(full, static_cast<size_t>(std::count(dest, dest + full, 0x5a)));

  // The firmware still serves the next frame.
  EXPECT_EQ(std::make_pair(full, 2u), link.Capture());
  EXPECT_EQ(std::make_pair(full, 0u), link.BulkRx(full));
  dest = link.Ram(Vc4Link::kDest, full);
  std::vector<uint8_t> frame = Vc4Firmware::MakeFrame(2, 720);
  EXPECT_TRUE(std::equal(frame.begin(), frame.end(), dest));
}

// Byte i of frame (seq, res) from the frame's definition, one byte at a time:
// SOI + APP0, then payload byte j = i - 4 is byte j % 8 (little-endian) of
// splitmix64(key + (j / 8 + 1)·γ), key = splitmix64(seq << 32 | res), with
// 0xff read as 0xfe; the last two bytes are EOI.
uint8_t OracleFrameByte(uint32_t seq, uint32_t res, size_t i) {
  auto splitmix64 = [](uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  const size_t eoi = Vc4Firmware::FrameBytes(res) - 2;
  if (i < 4) {
    return std::array<uint8_t, 4>{0xff, 0xd8, 0xff, 0xe0}[i];
  }
  if (i >= eoi) {
    return i == eoi ? 0xff : 0xd9;
  }
  const size_t j = i - 4;
  const uint64_t key = splitmix64(uint64_t{seq} << 32 | res);
  const uint64_t word = splitmix64(key + (j / 8 + 1) * 0x9e3779b97f4a7c15ull);
  const uint8_t b = static_cast<uint8_t>(word >> (8 * (j % 8)));
  return b == 0xff ? 0xfe : b;
}

// Bytes [0, n) of frame (seq, res), built byte by byte with OracleFrameByte.
std::vector<uint8_t> OracleFrame(uint32_t seq, uint32_t res, size_t n) {
  std::vector<uint8_t> f(n);
  for (size_t i = 0; i < n; ++i) {
    f[i] = OracleFrameByte(seq, res, i);
  }
  return f;
}

// Checks the generator against the oracle: every per-CPU payload writer this
// host supports, and the one frames use through MakeFrame and bulk receives.
// Whole frames; prefixes that end after every count of words past the last
// eight-word block, mid-word, in the markers and in EOI; and ranges that
// start and end mid-word, inside SOI/APP0, across EOI and at the frame's end.
// No byte past the range is written.
TEST_F(NativeDeviceTest, CameraFramesMatchBytewiseOracle) {
  // The first index in [0, want.size()) where |got| differs from |want|, or
  // want.size().
  auto first_diff = [](const std::vector<uint8_t>& want, const uint8_t* got) {
    return static_cast<size_t>(std::mismatch(want.begin(), want.end(), got).first - want.begin());
  };
  const uint32_t full = Vc4Firmware::FrameBytes(720);
  std::vector<uint32_t> lengths = {1, 2, 3, 4, 5};
  for (uint32_t words = 0; words < 8; ++words) {
    for (uint32_t extra : {0u, 1u, 7u}) {
      lengths.push_back(4 + 64 * 1000 + 8 * words + extra);  // payload past 1000 blocks
    }
  }
  for (uint32_t back : {9u, 3u, 2u, 1u, 0u}) {
    lengths.push_back(full - back);
  }

  ASSERT_FALSE(SupportedPayloadWriters().empty());
  std::vector<uint8_t> buf(Vc4Firmware::FrameBytes(1440) + 64);
  // Bytes [off, off + want.size()) of frame (seq, res) through |w|.
  auto check_range = [&](const PayloadWriterInstance& w, uint32_t seq, uint32_t res, size_t off,
                         const std::vector<uint8_t>& want) {
    const size_t n = want.size();
    std::fill(buf.begin(), buf.begin() + n + 64, 0x5a);
    WriteFrameRange(seq, res, off, buf.data(), n, w.write);
    EXPECT_EQ(n, first_diff(want, buf.data()))
        << w.cpu << " seq " << seq << " res " << res << " off " << off << " n " << n;
    EXPECT_EQ(64, std::count(buf.begin() + n, buf.begin() + n + 64, 0x5a))
        << w.cpu << " wrote past off " << off << " n " << n;
  };
  for (uint32_t res : {720u, 1080u, 1440u}) {
    const size_t size = Vc4Firmware::FrameBytes(res);
    // {off, len}: inside SOI/APP0, from the markers into the payload, from
    // mid-word to mid-word within one word and across blocks, whole words,
    // ending at EOI, across EOI, inside EOI and at the frame's end.
    const std::vector<std::pair<size_t, size_t>> ranges = {
        {0, 1}, {1, 2}, {3, 1}, {2, 5}, {1, 64 * 3 + 9}, {4, 8}, {5, 3}, {7, 10}, {13, 7},
        {4 + 8 * 5 + 3, 64 * 1000 + 11}, {12, 64 * 2}, {size / 2 + 3, size / 4 + 5},
        {size - 2 - 5, 5}, {size - 2 - 61, 62}, {size - 7, 6}, {size - 2, 1}, {size - 1, 1},
        {size - 2, 2}, {size - 11, 11}, {size - 100, 100}, {size - 64 * 7 - 3, 64 * 7 + 3}};
    for (uint32_t seq : {0u, 1u, 99u}) {
      const std::vector<uint8_t> want = OracleFrame(seq, res, size);
      const std::vector<uint8_t> f = Vc4Firmware::MakeFrame(seq, res);
      ASSERT_EQ(want.size(), f.size());
      EXPECT_EQ(want.size(), first_diff(want, f.data())) << "seq " << seq << " res " << res;
      for (const PayloadWriterInstance& w : SupportedPayloadWriters()) {
        check_range(w, seq, res, 0, want);
        for (auto [off, len] : ranges) {
          check_range(w, seq, res, off,
                      std::vector<uint8_t>(want.begin() + static_cast<ptrdiff_t>(off),
                                           want.begin() + static_cast<ptrdiff_t>(off + len)));
        }
      }
    }
  }
  for (uint32_t n : lengths) {
    const std::vector<uint8_t> want = OracleFrame(0, 720, n);
    for (const PayloadWriterInstance& w : SupportedPayloadWriters()) {
      check_range(w, 0, 720, 0, want);
    }
  }

  Vc4Link link(&tb_);
  ASSERT_NE(nullptr, link.Ram(Vc4Link::kDest, full + 64));
  link.OpenCamera(720);
  for (uint32_t seq = 0; seq < lengths.size(); ++seq) {
    const uint32_t n = lengths[seq];
    std::memset(link.Ram(Vc4Link::kDest, full + 64), 0x5a, full + 64);
    EXPECT_EQ(std::make_pair(full, seq), link.Capture());
    EXPECT_EQ(std::make_pair(n, 0u), link.BulkRx(n));
    uint8_t* dest = link.Ram(Vc4Link::kDest, full + 64);
    EXPECT_EQ(n, first_diff(OracleFrame(seq, 720, n), dest)) << "n " << n;
    EXPECT_EQ(full + 64 - n, static_cast<size_t>(std::count(dest + n, dest + full + 64, 0x5a)))
        << "bytes past n written, n " << n;
  }
}

// Callbacks the firmware scheduled before a soft reset must not act after it:
// neither the lazy write-cursor publish nor a bulk transfer still in flight.
TEST_F(NativeDeviceTest, Vc4ResetDropsInFlightEvents) {
  const LatencyModel& lat = tb_.machine().latency();
  InterruptController& irq = tb_.machine().irq();
  Vc4Link link(&tb_);

  // CONNECT handled and its reply posted, but the cursor not yet published.
  link.Attach();
  link.Send(VchiqMsgType::kConnect, {});
  tb_.clock().Advance(lat.vchiq_msg_us);
  ASSERT_EQ(0u, link.MasterTx());
  uint64_t raises = irq.raise_count(kMailboxIrq);
  tb_.vc4().SoftReset();
  link.Attach();  // a new queue handed over after the reset
  tb_.clock().Advance(1'000'000);
  EXPECT_EQ(0u, link.MasterTx()) << "a publish from before the reset landed";
  EXPECT_EQ(raises, irq.raise_count(kMailboxIrq));

  // A bulk transfer taken by the firmware, its copy still in flight.
  const uint32_t full = Vc4Firmware::FrameBytes(720);
  ASSERT_NE(nullptr, link.Ram(Vc4Link::kDest, full));
  link.OpenCamera(720);
  EXPECT_EQ(std::make_pair(full, 0u), link.Capture());
  std::memset(link.Ram(Vc4Link::kDest, full), 0x5a, full);
  link.Send(VchiqMsgType::kBulkRx, {static_cast<uint32_t>(Vc4Link::kDest), full});
  tb_.clock().Advance(lat.vchiq_msg_us);
  raises = irq.raise_count(kMailboxIrq);
  tb_.vc4().SoftReset();
  link.Attach();
  tb_.clock().Advance(1'000'000);
  uint8_t* dest = link.Ram(Vc4Link::kDest, full);
  EXPECT_EQ(full, static_cast<size_t>(std::count(dest, dest + full, 0x5a)))
      << "a transfer from before the reset wrote RAM";
  EXPECT_EQ(0u, link.MasterTx()) << "a transfer from before the reset posted BULK_RX_DONE";
  EXPECT_EQ(raises, irq.raise_count(kMailboxIrq));
  EXPECT_FALSE(irq.Pending(kMailboxIrq));

  // The reset firmware serves a new session from sequence 0.
  link.OpenCamera(720);
  EXPECT_EQ(std::make_pair(full, 0u), link.Capture());
  EXPECT_EQ(std::make_pair(full, 0u), link.BulkRx(full));
  dest = link.Ram(Vc4Link::kDest, full);
  std::vector<uint8_t> frame = Vc4Firmware::MakeFrame(0, 720);
  EXPECT_TRUE(std::equal(frame.begin(), frame.end(), dest));
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
