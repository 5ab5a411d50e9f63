// Recorder-internals tests: raw event capture, taint sinks, path-condition
// attachment, state-changing classification, loop lifting, template merging,
// the differ, and coverage computation.
#include <gtest/gtest.h>

#include "src/record/differ.h"
#include "src/record/record_session.h"
#include "src/record/template_builder.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"

namespace dlt {
namespace {

// A tiny scripted "driver" against the testbed's MMC controller, to exercise
// the recorder in isolation from the real gold drivers.
class RecorderTest : public ::testing::Test {
 protected:
  RecorderTest() : tb_(TestbedOptions{.secure_io = false, .probe_drivers = false}) {}
  Rpi3Testbed tb_;
};

TEST_F(RecorderTest, TaintReachesSinkWithOperations) {
  RecordSession sess(&tb_.kern_io(), "entry", "t", tb_.mmc_id());
  TValue blkid = sess.ScalarParam("blkid", 42);
  sess.RegWrite32(tb_.mmc_id(), kSdArg, blkid & ~TValue(0x7), DLT_HERE);
  Result<InteractionTemplate> t = sess.Finish();
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(1u, t->events.size());
  const TemplateEvent& e = t->events[0];
  EXPECT_EQ(EventKind::kRegWrite, e.kind);
  // The accumulated taint operations (paper Table 4: SDARG = bid & (~0x7)).
  std::set<std::string> inputs;
  e.value->CollectInputs(&inputs);
  EXPECT_EQ(1u, inputs.count("blkid"));
  Bindings b{{"blkid", 96}};
  EXPECT_EQ(96u, *e.value->Eval(b));
  Bindings b2{{"blkid", 43}};
  EXPECT_EQ(40u, *e.value->Eval(b2));
}

TEST_F(RecorderTest, ParamPathConditionsBecomeInitialConstraints) {
  RecordSession sess(&tb_.kern_io(), "entry", "t", tb_.mmc_id());
  TValue blkcnt = sess.ScalarParam("blkcnt", 6);
  bool small = sess.Branch(blkcnt, Cmp::kLe, TValue(8), DLT_HERE);
  EXPECT_TRUE(small);
  Result<InteractionTemplate> t = sess.Finish();
  ASSERT_TRUE(t.ok());
  Bindings in{{"blkcnt", 7}};
  Bindings out{{"blkcnt", 9}};
  EXPECT_TRUE(*t->initial.Eval(in));
  EXPECT_FALSE(*t->initial.Eval(out));
}

TEST_F(RecorderTest, FalseBranchesRecordNegatedConditions) {
  RecordSession sess(&tb_.kern_io(), "entry", "t", tb_.mmc_id());
  TValue blkcnt = sess.ScalarParam("blkcnt", 20);
  EXPECT_FALSE(sess.Branch(blkcnt, Cmp::kLe, TValue(8), DLT_HERE));
  Result<InteractionTemplate> t = sess.Finish();
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(*t->initial.Eval(Bindings{{"blkcnt", 5}}));
  EXPECT_TRUE(*t->initial.Eval(Bindings{{"blkcnt", 30}}));
}

TEST_F(RecorderTest, DeviceInputBranchMarksStateChanging) {
  RecordSession sess(&tb_.kern_io(), "entry", "t", tb_.mmc_id());
  TValue hsts = sess.RegRead32(tb_.mmc_id(), kSdHsts, DLT_HERE);
  (void)sess.Branch(hsts & TValue(kSdHstsErrorMask), Cmp::kEq, TValue(0), DLT_HERE);
  // Another read never branched on: not state-changing (e.g. HFNUM-like).
  (void)sess.RegRead32(tb_.mmc_id(), kSdEdm, DLT_HERE);
  Result<InteractionTemplate> t = sess.Finish();
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(2u, t->events.size());
  EXPECT_TRUE(t->events[0].state_changing);
  EXPECT_FALSE(t->events[0].constraint.empty());
  EXPECT_FALSE(t->events[1].state_changing);
  EXPECT_TRUE(t->events[1].constraint.empty());
}

TEST_F(RecorderTest, DmaAllocIsAlwaysStateChanging) {
  RecordSession sess(&tb_.kern_io(), "entry", "t", tb_.mmc_id());
  (void)sess.DmaAlloc(TValue(4096), DLT_HERE);
  Result<InteractionTemplate> t = sess.Finish();
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(1u, t->events.size());
  EXPECT_EQ(EventKind::kDmaAlloc, t->events[0].kind);
  EXPECT_TRUE(t->events[0].state_changing);
}

TEST_F(RecorderTest, RecordingSitesArePreserved) {
  RecordSession sess(&tb_.kern_io(), "entry", "t", tb_.mmc_id());
  sess.RegWrite32(tb_.mmc_id(), kSdVdd, TValue(1), SourceLoc{"my_driver.cc", 123});
  Result<InteractionTemplate> t = sess.Finish();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ("my_driver.cc", t->events[0].file);
  EXPECT_EQ(123, t->events[0].line);
}

TEST(LoopLiftTest, CollapsesRepeatedReadDelayPattern) {
  // Synthesize a raw log: 3 failing shm reads (value != want) + terminal.
  std::vector<TemplateEvent> events;
  for (int i = 0; i < 4; ++i) {
    TemplateEvent rd;
    rd.kind = EventKind::kShmRead;
    rd.addr = Expr::Binary(ExprOp::kAdd, Expr::Input("dma0"), Expr::Const(0x10));
    rd.bind = "din" + std::to_string(i);
    ConstraintAtom atom{Expr::Input(rd.bind), i == 3 ? Cmp::kGt : Cmp::kLe, Expr::Const(0)};
    rd.constraint.AddAtom(atom);
    rd.state_changing = true;
    events.push_back(rd);
    if (i != 3) {
      TemplateEvent d;
      d.kind = EventKind::kDelay;
      d.value = Expr::Const(50);
      events.push_back(d);
    }
  }
  TemplateEvent tail;
  tail.kind = EventKind::kRegWrite;
  tail.device = 9;
  tail.value = Expr::Const(1);
  events.push_back(tail);

  int lifted = LiftPollingLoops(&events);
  EXPECT_EQ(1, lifted);
  ASSERT_EQ(2u, events.size());
  const TemplateEvent& poll = events[0];
  EXPECT_EQ(EventKind::kPollShm, poll.kind);
  EXPECT_EQ(Cmp::kGt, poll.poll_cmp);
  EXPECT_EQ(0u, poll.want);
  EXPECT_EQ(50u, poll.interval_us);
  EXPECT_EQ(4u, poll.recorded_iters);
  EXPECT_EQ("din3", poll.bind);  // terminal value may feed later events
  EXPECT_EQ(EventKind::kRegWrite, events[1].kind);
}

TEST(LoopLiftTest, SingleSuccessfulReadIsNotCollapsed) {
  std::vector<TemplateEvent> events;
  TemplateEvent rd;
  rd.kind = EventKind::kShmRead;
  rd.addr = Expr::Input("dma0");
  rd.bind = "din0";
  rd.constraint.AddAtom(ConstraintAtom{Expr::Input("din0"), Cmp::kGt, Expr::Const(0)});
  events.push_back(rd);
  EXPECT_EQ(0, LiftPollingLoops(&events));
  EXPECT_EQ(1u, events.size());
}

TEST(LoopLiftTest, ConsecutiveChecksWithSamePolarityNotALoop) {
  std::vector<TemplateEvent> events;
  for (int i = 0; i < 3; ++i) {
    TemplateEvent rd;
    rd.kind = EventKind::kRegRead;
    rd.device = 1;
    rd.reg_off = 0x20;
    rd.bind = "din" + std::to_string(i);
    rd.constraint.AddAtom(ConstraintAtom{Expr::Input(rd.bind), Cmp::kEq, Expr::Const(1)});
    events.push_back(rd);
  }
  EXPECT_EQ(0, LiftPollingLoops(&events));
  EXPECT_EQ(3u, events.size());
}

TEST_F(RecorderTest, DifferDetectsStateTransitionDivergence) {
  // Two record runs with blkcnt on the same side of the 8-block boundary take
  // the same path; crossing the boundary changes DMA allocations (§4.2 I).
  Result<InteractionTemplate> t5 = RecordMmcRun(&tb_, "A", kMmcRwRead, 5, 2048);
  ASSERT_TRUE(t5.ok());
  RawRecording raw5;  // TransitionSignature needs raw events: re-record.
  {
    tb_.ResetDevices();
    tb_.kern_io().ReleaseDma();
    RecordSession s(&tb_.kern_io(), kMmcEntry, "A", tb_.mmc_id());
    TValue rw = s.ScalarParam("rw", kMmcRwRead);
    TValue cnt = s.ScalarParam("blkcnt", 5);
    TValue id = s.ScalarParam("blkid", 2048);
    TValue fl = s.ScalarParam("flag", 0);
    std::vector<uint8_t> buf(5 * 512);
    s.BufferParam("buf", buf.data(), buf.size());
    BcmSdhostDriver d(&s, tb_.mmc_config());
    ASSERT_EQ(Status::kOk, d.Transfer(rw, cnt, id, fl, buf.data(), buf.size()));
    raw5 = s.raw();
  }
  RawRecording raw7;
  {
    tb_.ResetDevices();
    tb_.kern_io().ReleaseDma();
    RecordSession s(&tb_.kern_io(), kMmcEntry, "B", tb_.mmc_id());
    TValue rw = s.ScalarParam("rw", kMmcRwRead);
    TValue cnt = s.ScalarParam("blkcnt", 7);
    TValue id = s.ScalarParam("blkid", 4096);
    TValue fl = s.ScalarParam("flag", 0);
    std::vector<uint8_t> buf(7 * 512);
    s.BufferParam("buf", buf.data(), buf.size());
    BcmSdhostDriver d(&s, tb_.mmc_config());
    ASSERT_EQ(Status::kOk, d.Transfer(rw, cnt, id, fl, buf.data(), buf.size()));
    raw7 = s.raw();
  }
  RawRecording raw12;
  {
    tb_.ResetDevices();
    tb_.kern_io().ReleaseDma();
    RecordSession s(&tb_.kern_io(), kMmcEntry, "C", tb_.mmc_id());
    TValue rw = s.ScalarParam("rw", kMmcRwRead);
    TValue cnt = s.ScalarParam("blkcnt", 12);
    TValue id = s.ScalarParam("blkid", 2048);
    TValue fl = s.ScalarParam("flag", 0);
    std::vector<uint8_t> buf(12 * 512);
    s.BufferParam("buf", buf.data(), buf.size());
    BcmSdhostDriver d(&s, tb_.mmc_config());
    ASSERT_EQ(Status::kOk, d.Transfer(rw, cnt, id, fl, buf.data(), buf.size()));
    raw12 = s.raw();
  }
  // Same region (5 vs 7 blocks, different addresses): same transition path.
  EXPECT_TRUE(SameTransitionPath(raw5, raw7));
  // Crossing the page boundary (12 blocks): divergent path.
  EXPECT_FALSE(SameTransitionPath(raw5, raw12));
}

TEST_F(RecorderTest, MergeableTemplatesAreDeduplicated) {
  RecordCampaign campaign("mmc");
  Result<InteractionTemplate> a = RecordMmcRun(&tb_, "RD_8", kMmcRwRead, 5, 2048);
  ASSERT_TRUE(a.ok());
  Result<InteractionTemplate> b = RecordMmcRun(&tb_, "RD_8b", kMmcRwRead, 7, 8192);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(campaign.AddTemplate(std::move(*a)));
  EXPECT_FALSE(campaign.AddTemplate(std::move(*b)));  // same transition path
  EXPECT_EQ(1u, campaign.templates().size());
}

TEST_F(RecorderTest, FailedRecordRunDoesNotYieldTemplate) {
  tb_.ResetDevices();
  tb_.sd_medium().set_present(false);
  RecordSession s(&tb_.kern_io(), kMmcEntry, "bad", tb_.mmc_id());
  TValue rw = s.ScalarParam("rw", kMmcRwRead);
  TValue cnt = s.ScalarParam("blkcnt", 1);
  TValue id = s.ScalarParam("blkid", 0);
  TValue fl = s.ScalarParam("flag", 0);
  std::vector<uint8_t> buf(512);
  s.BufferParam("buf", buf.data(), buf.size());
  BcmSdhostDriver d(&s, tb_.mmc_config());
  EXPECT_NE(Status::kOk, d.Transfer(rw, cnt, id, fl, buf.data(), buf.size()));
  tb_.sd_medium().set_present(true);
}

TEST_F(RecorderTest, CoverageReportIsHumanReadable) {
  Result<RecordCampaign> campaign = RecordMmcCampaign(&tb_);
  ASSERT_TRUE(campaign.ok());
  std::string report = campaign->CoverageReport();
  // e.g. "blkcnt in [0x1, 0x8] U ..., blkid in [...], rw in {0x1} U {0x10}".
  EXPECT_NE(std::string::npos, report.find("blkcnt"));
  EXPECT_NE(std::string::npos, report.find("rw"));
  EXPECT_NE(std::string::npos, report.find("blkid"));
}

}  // namespace
}  // namespace dlt
