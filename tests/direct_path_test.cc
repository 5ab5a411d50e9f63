// The paper's two MMC state-transition paths w.r.t. flags (§6.1.3): with
// O_DIRECT the full driver shifts individual words through SDDATA; otherwise it
// uses DMA. Both are recordable and replayable; templates recorded with one
// flag value do not cover the other.
#include <gtest/gtest.h>

#include "src/core/replayer.h"
#include "src/record/record_session.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

Result<InteractionTemplate> RecordDirectRun(Rpi3Testbed* tb, const std::string& name, uint64_t rw,
                                            uint64_t blkcnt) {
  tb->ResetDevices();
  tb->kern_io().ReleaseDma();
  std::vector<uint8_t> buf = PatternBuf(blkcnt * 512, 0xd1);  // outlives the session
  RecordSession sess(&tb->kern_io(), kMmcEntry, name, tb->mmc_id());
  TValue rw_v = sess.ScalarParam("rw", rw);
  TValue cnt_v = sess.ScalarParam("blkcnt", blkcnt);
  TValue id_v = sess.ScalarParam("blkid", 4096);
  TValue flag_v = sess.ScalarParam("flag", kMmcFlagDirect);
  sess.BufferParam("buf", buf.data(), buf.size());
  BcmSdhostDriver driver(&sess, tb->mmc_config());
  Status s = driver.Transfer(rw_v, cnt_v, id_v, flag_v, buf.data(), buf.size());
  if (!Ok(s)) {
    return s;
  }
  return sess.Finish();
}

TEST(DirectPathTest, DirectTemplatesUsePioNotDma) {
  Rpi3Testbed tb{TestbedOptions{}};
  Result<InteractionTemplate> t = RecordDirectRun(&tb, "RD_direct_8", kMmcRwRead, 8);
  ASSERT_TRUE(t.ok()) << StatusName(t.status());
  int pio = 0;
  int dma_allocs = 0;
  for (const auto& e : t->events) {
    if (e.kind == EventKind::kPioIn || e.kind == EventKind::kPioOut) {
      ++pio;
    }
    if (e.kind == EventKind::kDmaAlloc) {
      ++dma_allocs;
    }
  }
  EXPECT_GT(pio, 0);
  EXPECT_EQ(0, dma_allocs);  // path (1): no descriptor chains, pure SDDATA words
  // Selection constraint pins the flag.
  EXPECT_FALSE(*t->initial.Eval(Bindings{
      {"rw", kMmcRwRead}, {"blkcnt", 8}, {"blkid", 0}, {"flag", 0}}));
  EXPECT_TRUE(*t->initial.Eval(Bindings{
      {"rw", kMmcRwRead}, {"blkcnt", 8}, {"blkid", 0}, {"flag", kMmcFlagDirect}}));
}

TEST(DirectPathTest, BothPathsReplayAndRoundTrip) {
  // Record a 4-template mini-campaign: DMA and O_DIRECT variants of RD/WR_8.
  Rpi3Testbed dev{TestbedOptions{}};
  RecordCampaign campaign("mmc-dual");
  Result<InteractionTemplate> rd_dma = RecordMmcRun(&dev, "RD_8", kMmcRwRead, 8, 2048);
  Result<InteractionTemplate> wr_dma = RecordMmcRun(&dev, "WR_8", kMmcRwWrite, 8, 2048);
  Result<InteractionTemplate> rd_dir = RecordDirectRun(&dev, "RD_direct_8", kMmcRwRead, 8);
  Result<InteractionTemplate> wr_dir = RecordDirectRun(&dev, "WR_direct_8", kMmcRwWrite, 8);
  ASSERT_TRUE(rd_dma.ok() && wr_dma.ok() && rd_dir.ok() && wr_dir.ok());
  EXPECT_TRUE(campaign.AddTemplate(std::move(*rd_dma)));
  EXPECT_TRUE(campaign.AddTemplate(std::move(*wr_dma)));
  EXPECT_TRUE(campaign.AddTemplate(std::move(*rd_dir)));  // distinct transition path
  EXPECT_TRUE(campaign.AddTemplate(std::move(*wr_dir)));
  std::vector<uint8_t> pkg = campaign.Seal(kDeveloperKey);

  TestbedOptions opts;
  opts.secure_io = true;
  opts.probe_drivers = false;
  Rpi3Testbed deploy{opts};
  Replayer replayer(&deploy.tee(), kDeveloperKey);
  ASSERT_EQ(Status::kOk, replayer.LoadPackage(pkg.data(), pkg.size()));

  for (uint64_t flag : {uint64_t{0}, kMmcFlagDirect}) {
    std::vector<uint8_t> data = PatternBuf(8 * 512, 0xe0 + flag);
    ReplayArgs args;
    args.scalars = {{"rw", kMmcRwWrite}, {"blkcnt", 8}, {"blkid", 512 + flag * 64}, {"flag", flag}};
    args.buffers["buf"] = BufferView{data.data(), data.size()};
    Result<ReplayStats> wr = replayer.Invoke(kMmcEntry, args);
    ASSERT_TRUE(wr.ok()) << "flag=" << flag << ": " << StatusName(wr.status());
    EXPECT_EQ(flag == 0 ? "WR_8" : "WR_direct_8", wr->template_name);

    std::vector<uint8_t> readback(8 * 512, 0);
    args.scalars["rw"] = kMmcRwRead;
    args.buffers["buf"] = BufferView{readback.data(), readback.size()};
    Result<ReplayStats> rd = replayer.Invoke(kMmcEntry, args);
    ASSERT_TRUE(rd.ok()) << "flag=" << flag;
    EXPECT_EQ(flag == 0 ? "RD_8" : "RD_direct_8", rd->template_name);
    EXPECT_EQ(data, readback) << "flag=" << flag;
  }
}

TEST(DirectPathTest, InterleavedDriverletsOnDistinctDevices) {
  // A storage trustlet and a UI trustlet take turns; their replayers drive
  // different device instances with no cross interference.
  std::vector<uint8_t> mmc_pkg;
  std::vector<uint8_t> disp_pkg;
  {
    Rpi3Testbed dev{TestbedOptions{}};
    Result<RecordCampaign> m = RecordMmcCampaign(&dev);
    Result<RecordCampaign> d = RecordDisplayCampaign(&dev);
    ASSERT_TRUE(m.ok() && d.ok());
    mmc_pkg = m->Seal(kDeveloperKey);
    disp_pkg = d->Seal(kDeveloperKey);
  }
  TestbedOptions opts;
  opts.secure_io = true;
  opts.probe_drivers = false;
  Rpi3Testbed deploy{opts};
  Replayer mmc(&deploy.tee(), kDeveloperKey);
  Replayer disp(&deploy.tee(), kDeveloperKey);
  ASSERT_EQ(Status::kOk, mmc.LoadPackage(mmc_pkg.data(), mmc_pkg.size()));
  ASSERT_EQ(Status::kOk, disp.LoadPackage(disp_pkg.data(), disp_pkg.size()));

  std::vector<uint8_t> block = PatternBuf(512, 1);
  std::vector<uint8_t> bitmap(32 * 32 * 4, 0x99);
  for (int i = 0; i < 4; ++i) {
    ReplayArgs a;
    a.scalars = {{"rw", kMmcRwWrite}, {"blkcnt", 1}, {"blkid", static_cast<uint64_t>(i) * 8},
                 {"flag", 0}};
    a.buffers["buf"] = BufferView{block.data(), block.size()};
    ASSERT_TRUE(mmc.Invoke(kMmcEntry, a).ok()) << i;

    ReplayArgs b;
    b.scalars = {{"x", static_cast<uint64_t>(i) * 40}, {"y", 0}, {"w", 32}, {"h", 32}};
    b.buffers["buf"] = BufferView{bitmap.data(), bitmap.size()};
    ASSERT_TRUE(disp.Invoke(kDisplayEntry, b).ok()) << i;
  }
  std::vector<uint8_t> readback(512, 0);
  ReplayArgs a;
  a.scalars = {{"rw", kMmcRwRead}, {"blkcnt", 1}, {"blkid", 8}, {"flag", 0}};
  a.buffers["buf"] = BufferView{readback.data(), readback.size()};
  ASSERT_TRUE(mmc.Invoke(kMmcEntry, a).ok());
  EXPECT_EQ(block, readback);
  EXPECT_EQ(0x99999999u, deploy.display().PanelPixel(40, 0));
}

}  // namespace
}  // namespace dlt
