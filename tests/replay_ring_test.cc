// Invocation-ring tests: world-switch charging on the batched invoke path,
// slot accounting (wrap-around, full-ring backpressure, empty doorbell),
// staged commands dying with their session, quarantine mid-batch fail-fast,
// and byte-for-byte equivalence between one ring batch and the same commands
// issued as sequential Invokes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/obs/telemetry.h"
#include "src/tee/invocation_ring.h"
#include "src/tee/replay_service.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

std::vector<uint8_t> Record(Result<RecordCampaign> (*campaign)(Rpi3Testbed*)) {
  Rpi3Testbed dev{TestbedOptions{}};
  Result<RecordCampaign> c = campaign(&dev);
  return c.ok() ? c->Seal(kDeveloperKey) : std::vector<uint8_t>{};
}

class ReplayRingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mmc_ = new std::vector<uint8_t>(Record(RecordMmcCampaign));
    ASSERT_FALSE(mmc_->empty());
  }
  static void TearDownTestSuite() { delete mmc_; }

  void SetUp() override {
    TestbedOptions opts;
    opts.secure_io = true;
    opts.probe_drivers = false;
    tb_ = std::make_unique<Rpi3Testbed>(opts);
  }

  // A block command with its own backing buffer (views are borrowed until the
  // completion is reaped, so each command in a batch needs live memory).
  ReplayArgs BlockArgs(uint64_t rw, uint64_t blkcnt, uint64_t blkid,
                       std::vector<uint8_t>* buf, uint8_t fill = 0xa5) {
    buf->assign(blkcnt * 512, fill);
    ReplayArgs args;
    args.scalars = {{"rw", rw}, {"blkcnt", blkcnt}, {"blkid", blkid}, {"flag", 0}};
    args.buffers["buf"] = BufferView{buf->data(), buf->size()};
    return args;
  }

  static std::vector<uint8_t>* mmc_;
  std::unique_ptr<Rpi3Testbed> tb_;
};

std::vector<uint8_t>* ReplayRingTest::mmc_ = nullptr;

TEST_F(ReplayRingTest, InvokeChargesTwoWorldSwitches) {
  ReplayService svc(&tb_->tee(), kDeveloperKey);
  ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  Result<SessionId> sid = svc.OpenSession("mmc");
  ASSERT_TRUE(sid.ok());

  std::vector<uint8_t> buf;
  uint64_t sw0 = tb_->tee().world_switches();
  uint64_t t0 = tb_->clock().now_us();
  ASSERT_TRUE(svc.Invoke(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, 2048, &buf)).ok());
  // A synchronous invoke is a batch of 1: SMC in, SMC back out.
  EXPECT_EQ(sw0 + 2, tb_->tee().world_switches());
  EXPECT_GE(tb_->clock().now_us() - t0, 2 * tb_->machine().latency().world_switch_us);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(svc.Invoke(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, 2048, &buf)).ok());
  }
  EXPECT_EQ(sw0 + 8, tb_->tee().world_switches());
}

TEST_F(ReplayRingTest, DoorbellDrainsWholeBatchUnderTwoSwitches) {
  ReplayService svc(&tb_->tee(), kDeveloperKey);
  ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  Result<SessionId> sid = svc.OpenSession("mmc");
  ASSERT_TRUE(sid.ok());

  std::vector<std::vector<uint8_t>> bufs(6);
  for (size_t i = 0; i < bufs.size(); ++i) {
    ASSERT_TRUE(
        svc.RingPush(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, 2048, &bufs[i])).ok());
  }
  uint64_t sw0 = tb_->tee().world_switches();
  Result<size_t> ran = svc.RingDoorbell(*sid);
  ASSERT_TRUE(ran.ok());
  EXPECT_EQ(6u, *ran);
  EXPECT_EQ(sw0 + 2, tb_->tee().world_switches());  // amortized across the batch

  for (size_t i = 0; i < bufs.size(); ++i) {
    Result<RingCompletion> c = svc.RingPop(*sid);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(i, c->seq);  // completions reap in push order
    EXPECT_TRUE(c->result.ok());
  }
  EXPECT_EQ(Status::kNotFound, svc.RingPop(*sid).status());
}

TEST_F(ReplayRingTest, WrapAroundReusesSlots) {
  ReplayServiceConfig cfg;
  cfg.ring_depth = 4;
  ReplayService svc(&tb_->tee(), kDeveloperKey, cfg);
  ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  Result<SessionId> sid = svc.OpenSession("mmc");
  ASSERT_TRUE(sid.ok());

  Telemetry& tel = Telemetry::Get();
  tel.Enable();
  tel.Reset();
  // 11 commands through a 4-slot ring in batches of 3: every slot is reused
  // at least twice and the sequence numbers stay monotonic across the wrap.
  uint64_t expect_seq = 0;
  std::vector<std::vector<uint8_t>> bufs(3);
  for (size_t done = 0; done < 11;) {
    size_t n = std::min<size_t>(3, 11 - done);
    for (size_t j = 0; j < n; ++j) {
      Result<uint64_t> seq =
          svc.RingPush(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, 2048, &bufs[j]));
      ASSERT_TRUE(seq.ok());
      EXPECT_EQ(done + j, *seq);
    }
    ASSERT_TRUE(svc.RingDoorbell(*sid).ok());
    for (size_t j = 0; j < n; ++j) {
      Result<RingCompletion> c = svc.RingPop(*sid);
      ASSERT_TRUE(c.ok());
      EXPECT_EQ(expect_seq++, c->seq);
      EXPECT_TRUE(c->result.ok());
    }
    done += n;
  }
  EXPECT_EQ(Status::kNotFound, svc.RingPop(*sid).status());  // drained
  MetricsRegistry& m = tel.metrics();
  EXPECT_EQ(11u, m.counter("ring.pushes").value());
  EXPECT_EQ(7u, m.counter("ring.wraps").value());  // seqs 4..10 reuse a slot
  EXPECT_EQ(11u, m.counter("ring.pops").value());
  EXPECT_EQ(1u, m.counter("ring.pops_empty").value());
  tel.Disable();
  tel.Reset();
  Result<const InvocationRing*> ring = svc.Ring(*sid);
  ASSERT_TRUE(ring.ok());
  EXPECT_EQ(0u, (*ring)->in_flight());
}

TEST_F(ReplayRingTest, FullRingBackpressuresUntilCompletionsAreReaped) {
  ReplayServiceConfig cfg;
  cfg.ring_depth = 4;
  ReplayService svc(&tb_->tee(), kDeveloperKey, cfg);
  ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  Result<SessionId> sid = svc.OpenSession("mmc");
  ASSERT_TRUE(sid.ok());

  std::vector<std::vector<uint8_t>> bufs(5);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        svc.RingPush(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, 2048, &bufs[i])).ok());
  }
  EXPECT_EQ(Status::kBusy,
            svc.RingPush(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, 2048, &bufs[4]))
                .status());
  // Nothing completes before the doorbell, and the refused push was not
  // admitted.
  EXPECT_EQ(Status::kNotFound, svc.RingPop(*sid).status());
  EXPECT_EQ(4u, svc.Stats(*sid)->submitted);

  // Draining alone does NOT free slots: a slot is occupied until its
  // completion is reaped, so the completion side can never overflow.
  ASSERT_TRUE(svc.RingDoorbell(*sid).ok());
  EXPECT_EQ(Status::kBusy,
            svc.RingPush(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, 2048, &bufs[4]))
                .status());

  ASSERT_TRUE(svc.RingPop(*sid).ok());
  EXPECT_TRUE(
      svc.RingPush(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, 2048, &bufs[4])).ok());
  EXPECT_EQ(5u, svc.Stats(*sid)->submitted);
}

TEST_F(ReplayRingTest, EmptyDoorbellChargesNoSwitch) {
  ReplayService svc(&tb_->tee(), kDeveloperKey);
  ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  Result<SessionId> sid = svc.OpenSession("mmc");
  ASSERT_TRUE(sid.ok());

  Telemetry& tel = Telemetry::Get();
  tel.Enable();
  tel.Reset();
  uint64_t sw0 = tb_->tee().world_switches();
  uint64_t t0 = tb_->clock().now_us();
  // A doorbell before the session's first push: nothing runs, no switch is
  // charged, and telemetry still counts the doorbell.
  Result<size_t> ran = svc.RingDoorbell(*sid);
  ASSERT_TRUE(ran.ok());
  EXPECT_EQ(0u, *ran);
  EXPECT_EQ(sw0, tb_->tee().world_switches());
  EXPECT_EQ(t0, tb_->clock().now_us());
  EXPECT_EQ(1u, tel.metrics().counter("ring.doorbells").value());
  EXPECT_EQ(1u, tel.metrics().counter("ring.empty_doorbells").value());
  EXPECT_EQ(1u, tel.metrics().histogram("ring.batch_size").count());
  tel.Disable();
  tel.Reset();
}

TEST_F(ReplayRingTest, RingCallsOnUnknownSessionFail) {
  ReplayService svc(&tb_->tee(), kDeveloperKey);
  ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  std::vector<uint8_t> buf;
  EXPECT_EQ(Status::kNotFound, svc.Ring(99).status());
  EXPECT_EQ(Status::kNotFound,
            svc.RingPush(99, kMmcEntry, BlockArgs(kMmcRwRead, 8, 2048, &buf)).status());
  EXPECT_EQ(Status::kNotFound, svc.RingDoorbell(99).status());
  EXPECT_EQ(Status::kNotFound, svc.RingPop(99).status());

  // A command staged on a session that then closes dies with the session:
  // it never runs, and the closed id's ring is gone without a world switch.
  Result<SessionId> sid = svc.OpenSession("mmc");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(svc.RingPush(*sid, kMmcEntry, BlockArgs(kMmcRwWrite, 1, 2048, &buf)).ok());
  ASSERT_EQ(Status::kOk, svc.CloseSession(*sid));
  uint64_t sw0 = tb_->tee().world_switches();
  EXPECT_EQ(Status::kNotFound, svc.RingDoorbell(*sid).status());
  EXPECT_EQ(Status::kNotFound, svc.RingPop(*sid).status());
  EXPECT_EQ(sw0, tb_->tee().world_switches());
  EXPECT_EQ(0u, svc.replayer("mmc")->total_events_executed());
}

TEST_F(ReplayRingTest, QuarantineMidBatchFailsRemainingCommandsFast) {
  ReplayServiceConfig cfg;
  cfg.quarantine_threshold = 2;
  ReplayService svc(&tb_->tee(), kDeveloperKey, cfg);
  ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
  Result<SessionId> sid = svc.OpenSession("mmc");
  ASSERT_TRUE(sid.ok());

  std::vector<std::vector<uint8_t>> bufs(5);
  for (size_t i = 0; i < bufs.size(); ++i) {
    ASSERT_TRUE(
        svc.RingPush(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, 2048, &bufs[i])).ok());
  }
  tb_->sd_medium().set_present(false);
  Result<size_t> ran = svc.RingDoorbell(*sid);
  tb_->sd_medium().set_present(true);
  ASSERT_TRUE(ran.ok());
  EXPECT_EQ(5u, *ran);

  // Commands 0 and 1 climb the ladder to the threshold; 2..4 must fail fast
  // with kQuarantined instead of touching the (now absent) device again.
  for (size_t i = 0; i < bufs.size(); ++i) {
    Result<RingCompletion> c = svc.RingPop(*sid);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(i < 2 ? Status::kAborted : Status::kQuarantined, c->result.status());
  }
  EXPECT_TRUE(svc.Stats(*sid)->quarantined);
  EXPECT_EQ(1u, svc.quarantined_sessions());

  // Push-side fail-fast mirrors Invoke once the session is quarantined, with
  // no device access even though the medium is healthy again.
  uint64_t resets_before = svc.replayer("mmc")->total_resets();
  EXPECT_EQ(Status::kQuarantined,
            svc.RingPush(*sid, kMmcEntry, BlockArgs(kMmcRwRead, 8, 2048, &bufs[0]))
                .status());
  EXPECT_EQ(resets_before, svc.replayer("mmc")->total_resets());
}

TEST_F(ReplayRingTest, BatchMatchesSequentialInvokesByteForByte) {
  // The same write/read command stream through (a) N sequential Invokes and
  // (b) one ring doorbell of N, on identical fresh testbeds. Read-back bytes
  // must be identical; only the world-switch count may differ.
  constexpr size_t kPairs = 4;
  auto run = [&](bool ring, std::vector<std::vector<uint8_t>>* read_bufs,
                 uint64_t* switches) {
    TestbedOptions opts;
    opts.secure_io = true;
    opts.probe_drivers = false;
    Rpi3Testbed tb{opts};
    ReplayService svc(&tb.tee(), kDeveloperKey);
    ASSERT_TRUE(svc.RegisterDriverlet(mmc_->data(), mmc_->size()).ok());
    Result<SessionId> sid = svc.OpenSession("mmc");
    ASSERT_TRUE(sid.ok());

    std::vector<std::vector<uint8_t>> write_bufs(kPairs);
    read_bufs->assign(kPairs, {});
    uint64_t sw0 = tb.tee().world_switches();
    for (size_t p = 0; p < kPairs; ++p) {
      uint64_t blkid = 2048 + p * 8;
      ReplayArgs w = BlockArgs(kMmcRwWrite, 8, blkid, &write_bufs[p],
                               static_cast<uint8_t>(0x11 * (p + 1)));
      ReplayArgs r = BlockArgs(kMmcRwRead, 8, blkid, &(*read_bufs)[p], 0x00);
      if (ring) {
        ASSERT_TRUE(svc.RingPush(*sid, kMmcEntry, std::move(w)).ok());
        ASSERT_TRUE(svc.RingPush(*sid, kMmcEntry, std::move(r)).ok());
      } else {
        ASSERT_TRUE(svc.Invoke(*sid, kMmcEntry, w).ok());
        ASSERT_TRUE(svc.Invoke(*sid, kMmcEntry, r).ok());
      }
    }
    if (ring) {
      Result<size_t> ran = svc.RingDoorbell(*sid);
      ASSERT_TRUE(ran.ok());
      EXPECT_EQ(2 * kPairs, *ran);
      for (size_t i = 0; i < 2 * kPairs; ++i) {
        Result<RingCompletion> c = svc.RingPop(*sid);
        ASSERT_TRUE(c.ok());
        EXPECT_TRUE(c->result.ok());
      }
    }
    *switches = tb.tee().world_switches() - sw0;
  };

  std::vector<std::vector<uint8_t>> seq_reads, ring_reads;
  uint64_t seq_switches = 0;
  uint64_t ring_switches = 0;
  run(false, &seq_reads, &seq_switches);
  run(true, &ring_reads, &ring_switches);
  EXPECT_EQ(2 * 2 * kPairs, seq_switches);  // 2 per command, unbatched
  EXPECT_EQ(2u, ring_switches);             // 2 for the whole batch
  for (size_t p = 0; p < kPairs; ++p) {
    // Reads really happened: the data is the written pattern, not the fill.
    EXPECT_EQ(std::vector<uint8_t>(8 * 512, static_cast<uint8_t>(0x11 * (p + 1))),
              seq_reads[p]);
    EXPECT_EQ(seq_reads[p], ring_reads[p]) << "pair " << p;
  }
}

}  // namespace
}  // namespace dlt
