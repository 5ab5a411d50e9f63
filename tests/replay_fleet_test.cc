// ReplayFleet tests: one template store per shard, loaded by every
// registration, per-shard session isolation and media independence,
// least-loaded pinning, per-shard kBusy backpressure, requests of closed
// sessions, work stealing under skewed load, per-session determinism with
// stealing on vs. off (byte-identical to the single-shard ReplayService
// baseline), and clean shutdown with work still queued. Runs under the
// ASan+UBSan job and the TSan job (docs/replay_fleet.md).
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "src/tee/replay_fleet.h"
#include "src/workload/deploy_util.h"
#include "src/workload/record_campaigns.h"

namespace dlt {
namespace {

class ReplayFleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mmc_ = new std::vector<uint8_t>(BuildMmcPackage());
    usb_ = new std::vector<uint8_t>(BuildUsbPackage());
    ASSERT_FALSE(mmc_->empty());
    ASSERT_FALSE(usb_->empty());
  }
  static void TearDownTestSuite() {
    delete mmc_;
    delete usb_;
  }

  static ReplayArgs BlockArgs(uint64_t rw, uint64_t blkcnt, uint64_t blkid,
                              std::vector<uint8_t>* buf) {
    ReplayArgs args;
    args.scalars = {{"rw", rw}, {"blkcnt", blkcnt}, {"blkid", blkid}, {"flag", 0}};
    args.buffers["buf"] = BufferView{buf->data(), buf->size()};
    return args;
  }

  static std::vector<uint8_t>* mmc_;
  static std::vector<uint8_t>* usb_;
};

std::vector<uint8_t>* ReplayFleetTest::mmc_ = nullptr;
std::vector<uint8_t>* ReplayFleetTest::usb_ = nullptr;

TEST_F(ReplayFleetTest, EachShardLoadsItsOwnStore) {
  ReplayFleetConfig cfg;
  cfg.shards = 3;
  ReplayFleet fleet(kDeveloperKey, cfg);
  ASSERT_TRUE(fleet.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());

  // Every shard's service owns its store, and one registration loads the
  // same templates into each of them.
  const TemplateStore& first = fleet.shard_service(0).store();
  ASSERT_GT(first.template_count(), 0u);
  for (size_t i = 1; i < fleet.shard_count(); ++i) {
    EXPECT_NE(&first, &fleet.shard_service(i).store());
    EXPECT_EQ(first.template_count(), fleet.shard_service(i).store().template_count());
  }

  // A package registered later is visible through every shard.
  ASSERT_TRUE(fleet.RegisterDriverlet(usb_->data(), usb_->size()).ok());
  for (size_t i = 0; i < fleet.shard_count(); ++i) {
    EXPECT_TRUE(fleet.shard_service(i).store().HasDriverlet("usb"));
    EXPECT_EQ(2u, fleet.shard_service(i).store().package_count());
  }
}

TEST_F(ReplayFleetTest, SessionsAreIsolatedPerShard) {
  ReplayFleetConfig cfg;
  cfg.shards = 4;
  ReplayFleet fleet(kDeveloperKey, cfg);
  ASSERT_TRUE(fleet.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());

  // One session pinned to each shard, all writing the SAME block range with
  // different payloads: each shard has its own SD medium, so reads must see
  // only the shard-local write.
  std::vector<FleetSessionId> sids;
  for (size_t i = 0; i < 4; ++i) {
    Result<FleetSessionId> sid = fleet.OpenSessionOn(i, "mmc");
    ASSERT_TRUE(sid.ok());
    EXPECT_EQ(i, FleetShardOf(*sid));
    sids.push_back(*sid);
  }
  // Pool not started: each request runs on this thread at the inline drain.
  auto invoke = [&fleet](FleetSessionId sid, ReplayArgs args) {
    Result<uint64_t> req = fleet.Submit(sid, kMmcEntry, std::move(args));
    if (!req.ok()) {
      return req.status();
    }
    EXPECT_EQ(1u, fleet.ProcessQueuedInline());
    Result<ReplayStats> r = fleet.TakeCompletion(*req);
    return r.ok() ? Status::kOk : r.status();
  };
  for (size_t i = 0; i < 4; ++i) {
    std::vector<uint8_t> buf = PatternBuf(8 * 512, 0x1000 + i);
    ASSERT_EQ(Status::kOk, invoke(sids[i], BlockArgs(kMmcRwWrite, 8, 4096, &buf)));
  }
  for (size_t i = 0; i < 4; ++i) {
    std::vector<uint8_t> buf(8 * 512, 0);
    ASSERT_EQ(Status::kOk, invoke(sids[i], BlockArgs(kMmcRwRead, 8, 4096, &buf)));
    EXPECT_EQ(PatternBuf(8 * 512, 0x1000 + i), buf) << "shard " << i;
  }
}

TEST_F(ReplayFleetTest, OpenSessionPinsLeastLoadedShard) {
  ReplayFleetConfig cfg;
  cfg.shards = 4;
  ReplayFleet fleet(kDeveloperKey, cfg);
  ASSERT_TRUE(fleet.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());

  std::set<size_t> shards;
  for (int i = 0; i < 4; ++i) {
    Result<FleetSessionId> sid = fleet.OpenSession("mmc");
    ASSERT_TRUE(sid.ok());
    shards.insert(FleetShardOf(*sid));
  }
  // Four opens on an idle 4-shard fleet spread across all four shards.
  EXPECT_EQ(4u, shards.size());

  // Unknown driverlets and bogus shard indexes are rejected up front.
  EXPECT_EQ(Status::kNotFound, fleet.OpenSession("nvme").status());
  EXPECT_EQ(Status::kInvalidArg, fleet.OpenSessionOn(99, "mmc").status());
}

TEST_F(ReplayFleetTest, BusyBackpressureIsPerShard) {
  ReplayFleetConfig cfg;
  cfg.shards = 2;
  cfg.queue_depth = 2;
  ReplayFleet fleet(kDeveloperKey, cfg);
  ASSERT_TRUE(fleet.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  Result<FleetSessionId> s0 = fleet.OpenSessionOn(0, "mmc");
  Result<FleetSessionId> s1 = fleet.OpenSessionOn(1, "mmc");
  ASSERT_TRUE(s0.ok() && s1.ok());

  // Pool not started: submissions just queue. Shard 0 fills at depth 2 ...
  std::vector<uint8_t> buf(512, 0xa5);
  Result<uint64_t> r1 = fleet.Submit(*s0, kMmcEntry, BlockArgs(kMmcRwWrite, 1, 64, &buf));
  Result<uint64_t> r2 = fleet.Submit(*s0, kMmcEntry, BlockArgs(kMmcRwWrite, 1, 72, &buf));
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(Status::kBusy,
            fleet.Submit(*s0, kMmcEntry, BlockArgs(kMmcRwWrite, 1, 80, &buf)).status());
  // ... while shard 1's queue is untouched and still admits.
  std::vector<uint8_t> buf1(512, 0x5a);
  Result<uint64_t> r3 = fleet.Submit(*s1, kMmcEntry, BlockArgs(kMmcRwWrite, 1, 64, &buf1));
  ASSERT_TRUE(r3.ok());

  FleetStats st = fleet.stats();
  EXPECT_EQ(1u, st.shards[0].busy_rejects);
  EXPECT_EQ(0u, st.shards[1].busy_rejects);
  EXPECT_EQ(2u, st.shards[0].queue_depth);

  // Shard 1's session closes while its request is still queued: the request
  // completes kNotFound without entering the secure world.
  ASSERT_EQ(Status::kOk, fleet.CloseSession(*s1));
  uint64_t shard1_switches = fleet.shard_testbed(1).tee().world_switches();

  // Inline drain executes everything; completions are taken exactly once.
  EXPECT_EQ(3u, fleet.ProcessQueuedInline());
  EXPECT_TRUE(fleet.TakeCompletion(*r1).ok());
  EXPECT_TRUE(fleet.TakeCompletion(*r2).ok());
  EXPECT_EQ(Status::kNotFound, fleet.TakeCompletion(*r1).status());
  EXPECT_EQ(1u, fleet.stats().shards[1].executed);
  EXPECT_EQ(Status::kNotFound, fleet.TakeCompletion(*r3).status());
  EXPECT_EQ(shard1_switches, fleet.shard_testbed(1).tee().world_switches());
}

TEST_F(ReplayFleetTest, StealingDrainsSkewedLoad) {
  // 3 shards, 2 workers: worker 0 homes shards {0, 2}, worker 1 homes {1}.
  // All load lands on shards 0 and 2, so worker 1 has nothing of its own and
  // must steal — while worker 0 is batch-executing one shard, the other
  // shard's backlog is only drained by theft.
  ReplayFleetConfig cfg;
  cfg.shards = 3;
  cfg.threads = 2;
  cfg.queue_depth = 256;
  cfg.stealing = true;
  // Pace executions in wall time so a backlog exists regardless of host
  // scheduling: while worker 0 sleeps through shard 0's pacing floor, shard
  // 2's queue is guaranteed non-empty and its exec_mu free, so worker 1 (no
  // loaded home shard) reliably steals instead of racing an instant drain.
  cfg.invoke_floor_us = 200;
  ReplayFleet fleet(kDeveloperKey, cfg);
  ASSERT_TRUE(fleet.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  Result<FleetSessionId> s0 = fleet.OpenSessionOn(0, "mmc");
  Result<FleetSessionId> s2 = fleet.OpenSessionOn(2, "mmc");
  ASSERT_TRUE(s0.ok() && s2.ok());

  fleet.Start();
  constexpr int kPerSession = 80;
  std::vector<std::vector<uint8_t>> bufs;
  bufs.reserve(2 * kPerSession);
  std::vector<uint64_t> reqs;
  for (int i = 0; i < kPerSession; ++i) {
    for (FleetSessionId sid : {*s0, *s2}) {
      bufs.emplace_back(512, 0xcc);
      ReplayArgs args =
          BlockArgs(kMmcRwWrite, 1, 128 + static_cast<uint64_t>(i) * 8, &bufs.back());
      // kBusy just means the queue is momentarily full — retry; the pool is
      // draining it concurrently.
      for (;;) {
        Result<uint64_t> r = fleet.Submit(sid, kMmcEntry, args);
        if (r.ok()) {
          reqs.push_back(*r);
          break;
        }
        ASSERT_EQ(Status::kBusy, r.status());
        std::this_thread::yield();
      }
    }
  }
  for (uint64_t req : reqs) {
    EXPECT_TRUE(fleet.WaitCompletion(req).ok());
  }
  fleet.Stop();

  FleetStats st = fleet.stats();
  EXPECT_EQ(reqs.size(), st.executed);
  EXPECT_GT(st.stolen, 0u) << "worker 1 never stole despite owning no loaded shard";
  EXPECT_EQ(0u, st.shards[1].executed);  // nothing was ever queued on shard 1
}

TEST_F(ReplayFleetTest, PerSessionDeterminismWithStealingOnAndOff) {
  // The acceptance property: a session's results are byte-identical whether
  // its invokes run on a plain single-shard ReplayService, a fleet with
  // stealing disabled, or a fleet with stealing enabled. The workload makes
  // ordering observable: two writes to the SAME blocks, then a read — only
  // submission-order execution returns the second payload.
  constexpr uint64_t kBlkid = 2048;
  constexpr uint64_t kCount = 8;
  const std::vector<uint8_t> first = PatternBuf(kCount * 512, 7);
  const std::vector<uint8_t> second = PatternBuf(kCount * 512, 99);

  // Baseline: the single-shard service path.
  Deployment base = MakeDeployment(*mmc_);
  ASSERT_NE(nullptr, base.replayer);
  std::vector<uint8_t> base_read(kCount * 512, 0);
  {
    std::vector<uint8_t> w1 = first;
    std::vector<uint8_t> w2 = second;
    ASSERT_TRUE(base.service
                    ->Invoke(base.session, kMmcEntry,
                             BlockArgs(kMmcRwWrite, kCount, kBlkid, &w1))
                    .ok());
    ASSERT_TRUE(base.service
                    ->Invoke(base.session, kMmcEntry,
                             BlockArgs(kMmcRwWrite, kCount, kBlkid, &w2))
                    .ok());
    ASSERT_TRUE(base.service
                    ->Invoke(base.session, kMmcEntry,
                             BlockArgs(kMmcRwRead, kCount, kBlkid, &base_read))
                    .ok());
  }
  EXPECT_EQ(second, base_read);

  for (bool stealing : {false, true}) {
    ReplayFleetConfig cfg;
    cfg.shards = 3;
    cfg.threads = 2;
    cfg.stealing = stealing;
    cfg.queue_depth = 64;
    ReplayFleet fleet(kDeveloperKey, cfg);
    ASSERT_TRUE(fleet.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());

    // Two sessions per shard so stolen invokes interleave with home ones.
    std::vector<FleetSessionId> sids;
    for (size_t sh = 0; sh < cfg.shards; ++sh) {
      for (int k = 0; k < 2; ++k) {
        Result<FleetSessionId> sid = fleet.OpenSessionOn(sh, "mmc");
        ASSERT_TRUE(sid.ok());
        sids.push_back(*sid);
      }
    }
    fleet.Start();
    struct SessionRun {
      std::vector<uint8_t> w1, w2, read;
      uint64_t req_w1 = 0, req_w2 = 0, req_read = 0;
    };
    std::vector<SessionRun> runs(sids.size());
    for (size_t i = 0; i < sids.size(); ++i) {
      SessionRun& r = runs[i];
      r.w1 = first;
      r.w2 = second;
      r.read.assign(kCount * 512, 0);
      Result<uint64_t> q1 =
          fleet.Submit(sids[i], kMmcEntry, BlockArgs(kMmcRwWrite, kCount, kBlkid, &r.w1));
      Result<uint64_t> q2 =
          fleet.Submit(sids[i], kMmcEntry, BlockArgs(kMmcRwWrite, kCount, kBlkid, &r.w2));
      Result<uint64_t> q3 =
          fleet.Submit(sids[i], kMmcEntry, BlockArgs(kMmcRwRead, kCount, kBlkid, &r.read));
      ASSERT_TRUE(q1.ok() && q2.ok() && q3.ok());
      r.req_w1 = *q1;
      r.req_w2 = *q2;
      r.req_read = *q3;
    }
    for (SessionRun& r : runs) {
      EXPECT_TRUE(fleet.WaitCompletion(r.req_w1).ok());
      EXPECT_TRUE(fleet.WaitCompletion(r.req_w2).ok());
      Result<ReplayStats> read = fleet.WaitCompletion(r.req_read);
      ASSERT_TRUE(read.ok());
      // Byte-identical to the single-shard baseline read.
      EXPECT_EQ(base_read, r.read) << "stealing=" << stealing;
    }
    fleet.Stop();
  }
}

TEST_F(ReplayFleetTest, StopCompletesQueuedWorkAsAborted) {
  // Never-started pool: Stop must still fail queued requests loudly rather
  // than leaving their completions unreachable.
  {
    ReplayFleetConfig cfg;
    cfg.shards = 2;
    ReplayFleet fleet(kDeveloperKey, cfg);
    ASSERT_TRUE(fleet.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
    Result<FleetSessionId> sid = fleet.OpenSessionOn(0, "mmc");
    ASSERT_TRUE(sid.ok());
    std::vector<uint8_t> buf(512, 0x11);
    Result<uint64_t> req =
        fleet.Submit(*sid, kMmcEntry, BlockArgs(kMmcRwWrite, 1, 32, &buf));
    ASSERT_TRUE(req.ok());
    fleet.Stop();
    EXPECT_EQ(Status::kAborted, fleet.TakeCompletion(*req).status());
    EXPECT_EQ(0u, fleet.stats().shards[0].queue_depth);
  }

  // Running pool under fire-hose load: every submitted request has a
  // collectable completion after Stop — executed or aborted, never lost.
  {
    ReplayFleetConfig cfg;
    cfg.shards = 2;
    cfg.threads = 2;
    cfg.queue_depth = 128;
    ReplayFleet fleet(kDeveloperKey, cfg);
    ASSERT_TRUE(fleet.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
    Result<FleetSessionId> sid = fleet.OpenSessionOn(0, "mmc");
    ASSERT_TRUE(sid.ok());
    fleet.Start();
    std::vector<std::vector<uint8_t>> bufs;
    bufs.reserve(64);
    std::vector<uint64_t> reqs;
    for (int i = 0; i < 64; ++i) {
      bufs.emplace_back(512, 0x22);
      Result<uint64_t> r = fleet.Submit(
          *sid, kMmcEntry,
          BlockArgs(kMmcRwWrite, 1, 512 + static_cast<uint64_t>(i) * 8, &bufs.back()));
      if (r.ok()) {
        reqs.push_back(*r);
      }
    }
    fleet.Stop();
    size_t executed = 0;
    size_t aborted = 0;
    for (uint64_t req : reqs) {
      Result<ReplayStats> c = fleet.TakeCompletion(req);
      if (c.ok()) {
        ++executed;
      } else {
        ASSERT_EQ(Status::kAborted, c.status());
        ++aborted;
      }
    }
    EXPECT_EQ(reqs.size(), executed + aborted);
    EXPECT_EQ(fleet.stats().executed, executed);
  }
}

}  // namespace
}  // namespace dlt
