// Workload-layer unit tests: the new peripheral FSMs at MMIO level, the
// ReplayBlockDevice chunking policy, the delegation accounting, and a
// taint-consistency property sweep.
#include <gtest/gtest.h>

#include <random>

#include "src/workload/delegated_block_device.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/replay_block_device.h"
#include "src/workload/rpi3_testbed.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

TEST(DisplayDeviceTest, CommitScansOutAfterVsync) {
  Rpi3Testbed tb{TestbedOptions{.secure_io = false, .probe_drivers = false}};
  auto& mem = tb.machine().mem();
  // Place a 2x2 bitmap in RAM and program a blit to (10, 20).
  uint32_t px[4] = {0x11111111, 0x22222222, 0x33333333, 0x44444444};
  ASSERT_EQ(Status::kOk, mem.WriteBytes(World::kNormal, 0x9000, px, sizeof(px)));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kDisplayBase + kDispFbAddr, 0x9000));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kDisplayBase + kDispStride, 8));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kDisplayBase + kDispGeom, 2 | (2 << 16)));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kDisplayBase + kDispPos, 10 | (20 << 16)));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kDisplayBase + kDispCommit, 1));
  // Busy until the next vsync.
  EXPECT_TRUE(*mem.Read32(World::kNormal, kDisplayBase + kDispStatus) & kDispStatusBusy);
  EXPECT_FALSE(tb.machine().irq().Pending(kDisplayIrq));
  tb.clock().Advance(20'000);
  EXPECT_TRUE(*mem.Read32(World::kNormal, kDisplayBase + kDispStatus) & kDispStatusVsync);
  EXPECT_TRUE(tb.machine().irq().Pending(kDisplayIrq));
  EXPECT_EQ(0x11111111u, tb.display().PanelPixel(10, 20));
  EXPECT_EQ(0x44444444u, tb.display().PanelPixel(11, 21));
  // W1C ack lowers the line.
  ASSERT_EQ(Status::kOk,
            mem.Write32(World::kNormal, kDisplayBase + kDispStatus, kDispStatusVsync));
  EXPECT_FALSE(tb.machine().irq().Pending(kDisplayIrq));
}

TEST(DisplayDeviceTest, OffscreenCommitIsIgnored) {
  Rpi3Testbed tb{TestbedOptions{.secure_io = false, .probe_drivers = false}};
  auto& mem = tb.machine().mem();
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kDisplayBase + kDispGeom, 64 | (64 << 16)));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kDisplayBase + kDispPos,
                                     (kPanelWidth - 8) | (0 << 16)));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kDisplayBase + kDispCommit, 1));
  tb.clock().Advance(50'000);
  // No vsync completion: a driver waiting on it would time out (divergence).
  EXPECT_FALSE(*mem.Read32(World::kNormal, kDisplayBase + kDispStatus) & kDispStatusVsync);
  EXPECT_EQ(0u, tb.display().commits());
}

TEST(TouchDeviceTest, FifoOrderAndStatusBits) {
  Rpi3Testbed tb{TestbedOptions{.secure_io = false, .probe_drivers = false}};
  auto& mem = tb.machine().mem();
  EXPECT_EQ(0u, *mem.Read32(World::kNormal, kTouchBase + kTouchStatus));
  tb.touch().InjectTouch(3, 4);
  tb.touch().InjectTouch(5, 6);
  EXPECT_EQ(kTouchStatusPending, *mem.Read32(World::kNormal, kTouchBase + kTouchStatus));
  EXPECT_EQ(2u, *mem.Read32(World::kNormal, kTouchBase + kTouchFifoLvl));
  EXPECT_EQ(TouchController::PackSample(3, 4), *mem.Read32(World::kNormal, kTouchBase + kTouchData));
  EXPECT_EQ(TouchController::PackSample(5, 6), *mem.Read32(World::kNormal, kTouchBase + kTouchData));
  EXPECT_EQ(0u, *mem.Read32(World::kNormal, kTouchBase + kTouchStatus));
  EXPECT_FALSE(tb.machine().irq().Pending(kTouchIrq));
}

TEST(UartDeviceTest, WireRateLimitsTxFifo) {
  Rpi3Testbed tb{TestbedOptions{.secure_io = false, .probe_drivers = false}};
  auto& mem = tb.machine().mem();
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kUartBase + kUartDr, 'a'));
  }
  EXPECT_TRUE(*mem.Read32(World::kNormal, kUartBase + kUartFr) & kUartFrTxFull);
  tb.clock().Advance(2 * 87);  // two byte times drain two slots
  EXPECT_FALSE(*mem.Read32(World::kNormal, kUartBase + kUartFr) & kUartFrTxFull);
  EXPECT_EQ(16u, tb.uart().transmitted().size());
}

TEST(ReplayChunkingTest, InvocationMixMatchesGranularities) {
  // 300 blocks -> 256 + 32 + 8 + 4(->RW_8) chunks; 1 block -> RW_1.
  Rpi3Testbed dev{TestbedOptions{}};
  Result<RecordCampaign> c = RecordMmcCampaign(&dev);
  ASSERT_TRUE(c.ok());
  std::vector<uint8_t> pkg = c->Seal(kDeveloperKey);

  Rpi3Testbed deploy{TestbedOptions{.secure_io = true, .probe_drivers = false}};
  ReplayService service(&deploy.tee(), kDeveloperKey);
  Result<std::string> name = service.RegisterDriverlet(pkg.data(), pkg.size());
  ASSERT_TRUE(name.ok());
  Result<SessionId> sid = service.OpenSession(*name);
  ASSERT_TRUE(sid.ok());
  ReplayBlockDevice rdev(&service, *sid, kMmcEntry);

  std::vector<uint8_t> data = PatternBuf(300 * 512, 0x5);
  ASSERT_EQ(Status::kOk, rdev.Write(0, 300, data.data()));
  ASSERT_EQ(Status::kOk, rdev.Write(4096, 1, data.data()));
  const auto& inv = rdev.invocations();
  EXPECT_EQ(1u, inv.at("WR_256"));
  EXPECT_EQ(1u, inv.at("WR_32"));
  EXPECT_EQ(2u, inv.at("WR_8"));  // the 8-chunk and the 4-block remainder
  EXPECT_EQ(1u, inv.at("WR_1"));
  // Data integrity across the chunk boundaries.
  std::vector<uint8_t> readback(300 * 512, 0);
  ASSERT_EQ(Status::kOk, rdev.Read(0, 300, readback.data()));
  EXPECT_EQ(data, readback);
}

TEST(DelegationTest, ExposureAccountingAndPassthrough) {
  Rpi3Testbed tb{TestbedOptions{}};
  PageCacheBlockDevice cache(&tb.mmc_driver(), &tb.machine(),
                             PageCacheBlockDevice::SyncMode::kWriteback);
  DelegatedBlockDevice delegated(&cache, &tb.machine());
  std::vector<uint8_t> data = PatternBuf(8 * 512, 0xcd);
  uint64_t t0 = tb.clock().now_us();
  ASSERT_EQ(Status::kOk, delegated.Write(0, 8, data.data()));
  EXPECT_GT(tb.clock().now_us(), t0);  // world switches + marshalling charged
  std::vector<uint8_t> readback(8 * 512, 0);
  ASSERT_EQ(Status::kOk, delegated.Read(0, 8, readback.data()));
  EXPECT_EQ(data, readback);
  EXPECT_EQ(2u * 8 * 512, delegated.exposed_bytes());
  EXPECT_EQ(2u, delegated.io_ops());
}

// Property: for arbitrary operator chains, the TValue's concrete value always
// equals its symbolic expression evaluated at the input bindings — the
// invariant that makes recorded output expressions sound.
class TaintConsistencyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TaintConsistencyTest, ConcreteMatchesSymbolicEval) {
  std::mt19937_64 rng(GetParam());
  Bindings bindings{{"a", rng() % 1000 + 1}, {"b", rng() % 1000 + 1}};
  TValue a = TValue::Input("a", bindings["a"]);
  TValue b = TValue::Input("b", bindings["b"]);
  TValue acc = a;
  for (int i = 0; i < 24; ++i) {
    TValue operand = (rng() % 3 == 0) ? b : TValue(rng() % 64 + 1);
    switch (rng() % 8) {
      case 0: acc = acc + operand; break;
      case 1: acc = acc - operand; break;
      case 2: acc = acc * operand; break;
      case 3: acc = acc & operand; break;
      case 4: acc = acc | operand; break;
      case 5: acc = acc ^ operand; break;
      case 6: acc = acc << TValue(rng() % 8); break;
      case 7: acc = acc >> TValue(rng() % 8); break;
    }
  }
  Result<uint64_t> sym = acc.expr()->Eval(bindings);
  ASSERT_TRUE(sym.ok());
  EXPECT_EQ(acc.value(), *sym);
  // And at *different* bindings the expression still evaluates (generalization).
  Bindings other{{"a", 7}, {"b", 9}};
  EXPECT_TRUE(acc.expr()->Eval(other).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaintConsistencyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

// The shared --seeds/--base-seed parsing every bench and CLI sweep now uses.
TEST(SeedRangeTest, ListEnumeratesFromBaseAndFlagsApply) {
  SeedRange r;
  EXPECT_TRUE(r.valid());
  EXPECT_EQ(r.List(), (std::vector<uint64_t>{1, 2, 3, 4}));

  EXPECT_TRUE(IsSeedRangeFlag("--seeds"));
  EXPECT_TRUE(IsSeedRangeFlag("--base-seed"));
  EXPECT_FALSE(IsSeedRangeFlag("--seed"));

  ApplySeedRangeFlag(&r, "--seeds", "3");
  ApplySeedRangeFlag(&r, "--base-seed", "100");
  EXPECT_EQ(r.count, 3);
  EXPECT_EQ(r.base, 100u);
  EXPECT_EQ(r.List(), (std::vector<uint64_t>{100, 101, 102}));

  ApplySeedRangeFlag(&r, "--seeds", "0");
  EXPECT_FALSE(r.valid());
}

}  // namespace
}  // namespace dlt
