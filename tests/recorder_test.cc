// Recorder-internals tests: raw event capture, taint sinks, path-condition
// attachment, state-changing classification, loop lifting, template merging,
// the differ, coverage computation, and copy-outs deferred while recording.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "src/crypto/sha256.h"
#include "src/record/differ.h"
#include "src/record/record_session.h"
#include "src/record/template_builder.h"
#include "src/workload/deploy_util.h"
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

TEST_F(RecorderTest, ConditionOverTwoBindsAttachesOnlyToTheLaterBind) {
  RecordSession sess(&tb_.kern_io(), "entry", "t", tb_.mmc_id());
  // Eleven reads bind din0..din10. "din10" sorts before "din9", so the target
  // must be picked by event order, not by symbol order.
  std::vector<TValue> reads;
  for (int i = 0; i < 11; ++i) {
    reads.push_back(sess.RegRead32(tb_.mmc_id(), kSdEdm, DLT_HERE));
  }
  (void)sess.Branch(reads[10] & TValue(0xf), Cmp::kLe, reads[9], DLT_HERE);
  Result<InteractionTemplate> t = sess.Finish();
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(11u, t->events.size());
  for (size_t i = 0; i < t->events.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(i == 10, t->events[i].state_changing);
    EXPECT_EQ(i == 10 ? 1u : 0u, t->events[i].constraint.atoms().size());
  }
  std::set<std::string> syms;
  t->events[10].constraint.CollectInputs(&syms);
  EXPECT_EQ((std::set<std::string>{"din10", "din9"}), syms);
  EXPECT_TRUE(t->initial.empty());
}

TEST_F(RecorderTest, ConditionOverAnUnboundSymbolFailsTheRun) {
  RecordSession sess(&tb_.kern_io(), "entry", "t", tb_.mmc_id());
  (void)sess.RegRead32(tb_.mmc_id(), kSdHsts, DLT_HERE);  // binds din0 only
  (void)sess.Branch(TValue::Input("din7", 0), Cmp::kEq, TValue(0), DLT_HERE);
  EXPECT_EQ(Status::kBadState, sess.Finish().status());
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

// ---- Deferred copy-outs ----
// A copy out of a pending DmaFill is left for later: the session keeps the
// fill's bytes and lands them only where the caller or the device could see
// the difference.

using Calls = std::vector<std::pair<size_t, size_t>>;

// A DmaFill generator that logs each call as {off, len} and writes byte i of
// the fill as Byte(i).
struct CountingFill {
  static uint8_t Byte(size_t i) { return static_cast<uint8_t>(i * 13 + 5); }
  AddressSpace::FillGen Gen() {
    return [this](size_t off, uint8_t* dst, size_t len) {
      calls.emplace_back(off, len);
      for (size_t i = 0; i < len; ++i) {
        dst[i] = Byte(off + i);
      }
    };
  }
  // Whether |p| holds bytes [off, off + len) of the fill.
  static bool Holds(const uint8_t* p, size_t off, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      if (p[i] != Byte(off + i)) {
        return false;
      }
    }
    return true;
  }
  Calls calls;
};

// Normal-world RAM in the kernel's DMA pool, where the fills land.
constexpr PhysAddr kFillAt = kKernPoolBase + 0x10'0000;
constexpr uint8_t kUntouched = 0xee;

// Whether the copies left buf[from, to) alone.
bool Untouched(const std::vector<uint8_t>& buf, size_t from, size_t to) {
  return std::all_of(buf.begin() + from, buf.begin() + to,
                     [](uint8_t b) { return b == kUntouched; });
}

TEST_F(RecorderTest, CopiesOfOnePendingRangeGenerateItOnceAtDmaReleaseAll) {
  CountingFill fill;
  std::vector<uint8_t> buf(0x100, kUntouched);
  RecordSession sess(&tb_.kern_io(), "entry", "t", tb_.mmc_id());
  sess.BufferParam("buf", buf.data(), buf.size());
  ASSERT_EQ(Status::kOk, tb_.machine().mem().DmaFill(kFillAt, 0x100, fill.Gen()));
  for (int i = 0; i < 10; ++i) {
    sess.CopyFromDma(buf.data(), TValue(0x20), TValue(kFillAt + 0x10), TValue(0x80), DLT_HERE);
  }
  EXPECT_TRUE(fill.calls.empty()) << "a copy out of a pending fill was generated at once";
  EXPECT_TRUE(Untouched(buf, 0, 0x100));
  sess.DmaReleaseAll(DLT_HERE);
  EXPECT_EQ((Calls{{0x10, 0x80}}), fill.calls);
  EXPECT_TRUE(Untouched(buf, 0, 0x20));
  EXPECT_TRUE(CountingFill::Holds(buf.data() + 0x20, 0x10, 0x80));
  EXPECT_TRUE(Untouched(buf, 0xa0, 0x100));
  Result<InteractionTemplate> t = sess.Finish();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(10, std::count_if(t->events.begin(), t->events.end(), [](const TemplateEvent& e) {
              return e.kind == EventKind::kCopyFromDma;
            }));
  EXPECT_EQ(1u, fill.calls.size()) << "Finish landed a copy again";
}

// A CopyToDma or PioOut reads the program buffer, so a pending copy into the
// bytes it reads lands first and the device sees the copied bytes.
TEST_F(RecorderTest, CopyToDmaOrPioOutFromTheDestinationLandsTheCopyFirst) {
  AddressSpace& mem = tb_.machine().mem();
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, tb_.machine().DeviceById(tb_.uart_id())->base +
                                                         kUartCr,
                                     kUartCrEnable));
  CountingFill fill;
  std::vector<uint8_t> buf(0x100, kUntouched);
  RecordSession sess(&tb_.kern_io(), "entry", "t", tb_.mmc_id());
  sess.BufferParam("buf", buf.data(), buf.size());
  ASSERT_EQ(Status::kOk, mem.DmaFill(kFillAt, 0x100, fill.Gen()));

  sess.CopyFromDma(buf.data(), TValue(0), TValue(kFillAt), TValue(0x40), DLT_HERE);
  sess.CopyToDma(TValue(kFillAt + 0x1000), buf.data(), TValue(0x30), TValue(0x20), DLT_HERE);
  EXPECT_EQ((Calls{{0, 0x40}}), fill.calls);
  std::vector<uint8_t> sent(0x20);
  ASSERT_EQ(Status::kOk, mem.ReadBytes(World::kNormal, kFillAt + 0x1000, sent.data(), sent.size()));
  EXPECT_TRUE(CountingFill::Holds(sent.data(), 0x30, 0x10)) << "the device read stale bytes";
  EXPECT_TRUE(Untouched(sent, 0x10, 0x20));

  // PioOut of two words to the UART's data register sends their low bytes.
  sess.CopyFromDma(buf.data(), TValue(0x80), TValue(kFillAt + 0x40), TValue(0x40), DLT_HERE);
  sess.PioOut(tb_.uart_id(), kUartDr, buf.data(), TValue(0x88), TValue(8), DLT_HERE);
  EXPECT_EQ((Calls{{0, 0x40}, {0x40, 0x40}}), fill.calls);
  EXPECT_EQ(std::string({static_cast<char>(CountingFill::Byte(0x48)),
                         static_cast<char>(CountingFill::Byte(0x4c))}),
            tb_.uart().transmitted());
  sess.DmaReleaseAll(DLT_HERE);
  EXPECT_EQ(2u, fill.calls.size()) << "a landed copy was generated again";
}

// A copy that only partly overwrites a pending one lands it first: the older
// bytes it does not overwrite must reach the buffer, and the bytes it does
// must not be overwritten by the older copy later.
TEST_F(RecorderTest, PartlyOverlappingCopyFromDmaOrPioInLandsTheOlderCopyFirst) {
  AddressSpace& mem = tb_.machine().mem();
  CountingFill older;
  CountingFill newer;
  ASSERT_EQ(Status::kOk, mem.DmaFill(kFillAt, 0x100, older.Gen()));
  ASSERT_EQ(Status::kOk, mem.DmaFill(kFillAt + 0x1000, 0x100, newer.Gen()));
  // RAM that is already written: a copy out of it happens at once.
  const PhysAddr written = kFillAt + 0x2000;
  const std::vector<uint8_t> pattern(0x80, 0x77);
  ASSERT_EQ(Status::kOk, mem.WriteBytes(World::kNormal, written, pattern.data(), pattern.size()));
  const PhysAddr sdarg = tb_.machine().DeviceById(tb_.mmc_id())->base + kSdArg;
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, sdarg, 0x04030201));

  struct Case {
    const char* name;
    std::function<void(RecordSession&, std::vector<uint8_t>&)> newer_copy;
    std::function<void(const std::vector<uint8_t>&)> check_newer_bytes;
  };
  const Case cases[] = {
      {"deferred CopyFromDma",
       [&](RecordSession& sess, std::vector<uint8_t>& buf) {
         sess.CopyFromDma(buf.data(), TValue(0x40), TValue(kFillAt + 0x1000), TValue(0x80),
                          DLT_HERE);
         EXPECT_TRUE(newer.calls.empty()) << "the newer copy did not wait";
       },
       [&](const std::vector<uint8_t>& buf) {
         EXPECT_EQ((Calls{{0, 0x80}}), newer.calls);
         EXPECT_TRUE(CountingFill::Holds(buf.data() + 0x40, 0, 0x80));
       }},
      {"immediate CopyFromDma",
       [&](RecordSession& sess, std::vector<uint8_t>& buf) {
         sess.CopyFromDma(buf.data(), TValue(0x40), TValue(written), TValue(0x80), DLT_HERE);
       },
       [&](const std::vector<uint8_t>& buf) {
         EXPECT_TRUE(std::equal(pattern.begin(), pattern.end(), buf.begin() + 0x40));
       }},
      {"PioIn of one word",
       [&](RecordSession& sess, std::vector<uint8_t>& buf) {
         sess.PioIn(tb_.mmc_id(), kSdArg, buf.data(), TValue(0x40), TValue(4), DLT_HERE);
       },
       [&](const std::vector<uint8_t>& buf) {
         EXPECT_EQ((std::vector<uint8_t>{1, 2, 3, 4}),
                   std::vector<uint8_t>(buf.begin() + 0x40, buf.begin() + 0x44));
         EXPECT_TRUE(CountingFill::Holds(buf.data() + 0x44, 0x44, 0x3c));
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    older.calls.clear();
    newer.calls.clear();
    std::vector<uint8_t> buf(0x100, kUntouched);
    RecordSession sess(&tb_.kern_io(), "entry", "t", tb_.mmc_id());
    sess.BufferParam("buf", buf.data(), buf.size());
    sess.CopyFromDma(buf.data(), TValue(0), TValue(kFillAt), TValue(0x80), DLT_HERE);
    c.newer_copy(sess, buf);
    EXPECT_EQ((Calls{{0, 0x80}}), older.calls) << "the older copy did not land first";
    sess.DmaReleaseAll(DLT_HERE);
    EXPECT_EQ(1u, older.calls.size()) << "a landed copy was generated again";
    EXPECT_TRUE(CountingFill::Holds(buf.data(), 0, 0x40));
    c.check_newer_bytes(buf);
    EXPECT_TRUE(Untouched(buf, 0xc0, 0x100));
  }
}

// The session has one slot: a copy deferred into other bytes of the buffer
// lands the pending one first, and each lands once.
TEST_F(RecorderTest, DisjointDeferredCopyLandsThePendingOne) {
  CountingFill fill;
  std::vector<uint8_t> buf(0x100, kUntouched);
  RecordSession sess(&tb_.kern_io(), "entry", "t", tb_.mmc_id());
  sess.BufferParam("buf", buf.data(), buf.size());
  ASSERT_EQ(Status::kOk, tb_.machine().mem().DmaFill(kFillAt, 0x100, fill.Gen()));
  sess.CopyFromDma(buf.data(), TValue(0), TValue(kFillAt), TValue(0x40), DLT_HERE);
  sess.CopyFromDma(buf.data(), TValue(0x80), TValue(kFillAt + 0x80), TValue(0x40), DLT_HERE);
  EXPECT_EQ((Calls{{0, 0x40}}), fill.calls);
  sess.DmaReleaseAll(DLT_HERE);
  EXPECT_EQ((Calls{{0, 0x40}, {0x80, 0x40}}), fill.calls);
  EXPECT_TRUE(CountingFill::Holds(buf.data(), 0, 0x40));
  EXPECT_TRUE(Untouched(buf, 0x40, 0x80));
  EXPECT_TRUE(CountingFill::Holds(buf.data() + 0x80, 0x80, 0x40));
  EXPECT_TRUE(Untouched(buf, 0xc0, 0x100));
}

TEST_F(RecorderTest, FinishLandsWhatIsLeft) {
  CountingFill fill;
  std::vector<uint8_t> buf(0x100, kUntouched);
  RecordSession sess(&tb_.kern_io(), "entry", "t", tb_.mmc_id());
  sess.BufferParam("buf", buf.data(), buf.size());
  ASSERT_EQ(Status::kOk, tb_.machine().mem().DmaFill(kFillAt, 0x100, fill.Gen()));
  sess.CopyFromDma(buf.data(), TValue(0), TValue(kFillAt + 4), TValue(0xf0), DLT_HERE);
  EXPECT_TRUE(fill.calls.empty());
  ASSERT_TRUE(sess.Finish().ok());
  EXPECT_EQ((Calls{{4, 0xf0}}), fill.calls);
  EXPECT_TRUE(CountingFill::Holds(buf.data(), 4, 0xf0));
}

// The TZASC check is made at copy time: a refused copy writes nothing and
// leaves nothing to land later, and a pending copy it would have covered
// still lands.
TEST_F(RecorderTest, RefusedCopyLeavesNothingPending) {
  AddressSpace& mem = tb_.machine().mem();
  CountingFill secure;
  CountingFill normal;
  std::vector<uint8_t> buf(0x100, kUntouched);
  RecordSession sess(&tb_.kern_io(), "entry", "t", tb_.mmc_id());
  sess.BufferParam("buf", buf.data(), buf.size());
  // Bus-master fills are not world-checked; the normal world may not read
  // the TEE pool.
  ASSERT_EQ(Status::kOk, mem.DmaFill(kTeePoolBase, 0x100, secure.Gen()));
  ASSERT_EQ(Status::kOk, mem.DmaFill(kFillAt, 0x100, normal.Gen()));
  const uint64_t denied = tb_.machine().tzasc().denied_count();
  sess.CopyFromDma(buf.data(), TValue(0), TValue(kTeePoolBase), TValue(0x100), DLT_HERE);
  EXPECT_EQ(denied + 1, tb_.machine().tzasc().denied_count());
  sess.DmaReleaseAll(DLT_HERE);
  EXPECT_TRUE(secure.calls.empty());
  EXPECT_TRUE(Untouched(buf, 0, 0x100));

  sess.CopyFromDma(buf.data(), TValue(0x10), TValue(kFillAt), TValue(0x40), DLT_HERE);
  sess.CopyFromDma(buf.data(), TValue(0), TValue(kTeePoolBase), TValue(0x100), DLT_HERE);
  EXPECT_EQ(denied + 2, tb_.machine().tzasc().denied_count());
  ASSERT_TRUE(sess.Finish().ok());
  EXPECT_TRUE(secure.calls.empty());
  EXPECT_EQ((Calls{{0, 0x40}}), normal.calls);
  EXPECT_TRUE(Untouched(buf, 0, 0x10));
  EXPECT_TRUE(CountingFill::Holds(buf.data() + 0x10, 0, 0x40));
  EXPECT_TRUE(Untouched(buf, 0x50, 0x100));
}

// A capture buffer that covers every resolution, as the camera campaign's.
size_t CaptureBytes() { return Vc4Firmware::FrameBytes(1440) + 4096; }

// Puts the camera where a record run starts it.
void BeginCapture(Rpi3Testbed* tb) {
  tb->ResetDevices();
  tb->kern_io().ReleaseDma();
}

// Unplugs the camera sensor once the VC4 has produced one more frame, so the
// next capture request gets no BUFFER_DONE and the driver times out.
void UnplugSensorAfterNextFrame(Rpi3Testbed* tb, uint64_t produced) {
  tb->clock().ScheduleIn(500, [tb, produced] {
    if (tb->vc4().frames_produced() == produced) {
      UnplugSensorAfterNextFrame(tb, produced);
      return;
    }
    tb->vc4().set_sensor_connected(false);
  });
}

// The oracle: whenever a recorded capture returns, its buffers hold what the
// same capture leaves over PassthroughIo alone.
TEST_F(RecorderTest, RecordedCaptureReturnsTheBuffersOfANativeCapture) {
  for (uint64_t frames : {1, 10, 100}) {
    for (uint64_t res : {720, 1080, 1440}) {
      SCOPED_TRACE(std::to_string(frames) + " frames at " + std::to_string(res) + "p");
      std::vector<uint8_t> native(CaptureBytes(), kUntouched);
      std::vector<uint8_t> native_img(4);
      BeginCapture(&tb_);
      {
        VchiqCameraDriver driver(&tb_.kern_io(), tb_.cam_config());
        ASSERT_EQ(Status::kOk, driver.Capture(TValue(frames), TValue(res), native.data(),
                                              native.size(), TValue(native.size()),
                                              native_img.data()));
      }
      std::vector<uint8_t> recorded(CaptureBytes(), kUntouched);
      std::vector<uint8_t> recorded_img(4);
      BeginCapture(&tb_);
      RecordSession sess(&tb_.kern_io(), kCameraEntry, "t", tb_.vchiq_id());
      TValue frames_v = sess.ScalarParam("frame", frames);
      TValue res_v = sess.ScalarParam("resolution", res);
      TValue size_v = sess.ScalarParam("buf_size", recorded.size());
      sess.BufferParam("buf", recorded.data(), recorded.size());
      sess.BufferParam("img_size", recorded_img.data(), recorded_img.size());
      VchiqCameraDriver driver(&sess, tb_.cam_config());
      ASSERT_EQ(Status::kOk, driver.Capture(frames_v, res_v, recorded.data(), recorded.size(),
                                            size_v, recorded_img.data()));
      EXPECT_TRUE(native == recorded) << "the recorded capture returned other frame bytes";
      EXPECT_EQ(native_img, recorded_img);
    }
  }
}

// A driver that fails with a copy still pending: the copy lands when the
// session goes away, into program buffers that outlive it. The ASan+UBSan
// job runs this test, so a record run that freed its buffers first fails it.
TEST_F(RecorderTest, FailedCaptureLandsItsPendingCopyWhenTheSessionEnds) {
  const std::vector<uint8_t> first = Vc4Firmware::MakeFrame(0, 720);
  std::vector<uint8_t> buf(CaptureBytes(), kUntouched);
  std::vector<uint8_t> img_size(4);
  {
    BeginCapture(&tb_);
    RecordSession sess(&tb_.kern_io(), kCameraEntry, "t", tb_.vchiq_id());
    TValue frames_v = sess.ScalarParam("frame", 2);
    TValue res_v = sess.ScalarParam("resolution", 720);
    TValue size_v = sess.ScalarParam("buf_size", buf.size());
    sess.BufferParam("buf", buf.data(), buf.size());
    sess.BufferParam("img_size", img_size.data(), img_size.size());
    VchiqCameraDriver driver(&sess, tb_.cam_config());
    UnplugSensorAfterNextFrame(&tb_, tb_.vc4().frames_produced());
    EXPECT_EQ(Status::kTimeout,
              driver.Capture(frames_v, res_v, buf.data(), buf.size(), size_v, img_size.data()));
    EXPECT_TRUE(Untouched(buf, 0, buf.size())) << "the frame copy was not left pending";
  }
  EXPECT_TRUE(std::equal(first.begin(), first.end(), buf.begin()));
  EXPECT_TRUE(Untouched(buf, first.size(), buf.size()));

  // The same failure inside the campaign's record run.
  tb_.vc4().set_sensor_connected(true);
  UnplugSensorAfterNextFrame(&tb_, tb_.vc4().frames_produced());
  EXPECT_EQ(Status::kTimeout, RecordCameraRun(&tb_, "Unplugged", 2, 720).status());
  tb_.vc4().set_sensor_connected(true);
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

TEST(LoopLiftTest, TwoLoopsBetweenKeptEventsCompactInPlace) {
  // A read whose recorded condition is (bind & 1) <cmp> 0.
  auto read = [](EventKind kind, const std::string& bind, Cmp cmp) {
    TemplateEvent rd;
    rd.kind = kind;
    rd.device = 1;
    rd.reg_off = 0x20;
    if (kind == EventKind::kShmRead) {
      rd.addr = Expr::Input("dma0");
    }
    rd.bind = bind;
    rd.constraint.AddAtom(ConstraintAtom{
        Expr::Binary(ExprOp::kAnd, Expr::Input(bind), Expr::Const(1)), cmp, Expr::Const(0)});
    rd.state_changing = true;
    return rd;
  };
  auto delay = [] {
    TemplateEvent d;
    d.kind = EventKind::kDelay;
    d.value = Expr::Const(50);
    return d;
  };
  auto write = [](uint64_t off) {
    TemplateEvent w;
    w.kind = EventKind::kRegWrite;
    w.device = 9;
    w.reg_off = off;
    w.value = Expr::Const(1);
    return w;
  };
  const EventKind kShm = EventKind::kShmRead;
  const EventKind kReg = EventKind::kRegRead;
  std::vector<TemplateEvent> events = {
      // Two failing shared-memory reads with delays, then the terminal read;
      // the delay after the terminal read is not part of the loop.
      read(kShm, "din0", Cmp::kEq), delay(), read(kShm, "din1", Cmp::kEq), delay(),
      read(kShm, "din2", Cmp::kNe), delay(), write(0x4),
      // Three failing register reads without delays, then the terminal read.
      read(kReg, "din3", Cmp::kNe), read(kReg, "din4", Cmp::kNe), read(kReg, "din5", Cmp::kNe),
      read(kReg, "din6", Cmp::kEq), write(0x8)};

  EXPECT_EQ(2, LiftPollingLoops(&events));
  std::vector<EventKind> kinds;
  for (const TemplateEvent& e : events) {
    kinds.push_back(e.kind);
  }
  EXPECT_EQ((std::vector<EventKind>{EventKind::kPollShm, EventKind::kDelay, EventKind::kRegWrite,
                                    EventKind::kPollReg, EventKind::kRegWrite}),
            kinds);
  ASSERT_EQ(5u, events.size());
  EXPECT_EQ("din2", events[0].bind);
  EXPECT_EQ(Cmp::kNe, events[0].poll_cmp);
  EXPECT_EQ(3u, events[0].recorded_iters);
  EXPECT_EQ(50u, events[0].interval_us);
  EXPECT_EQ(0x4u, events[2].reg_off);
  EXPECT_EQ("din6", events[3].bind);
  EXPECT_EQ(Cmp::kEq, events[3].poll_cmp);
  EXPECT_EQ(4u, events[3].recorded_iters);
  EXPECT_EQ(0u, events[3].interval_us);
  EXPECT_EQ(0x20u, events[3].reg_off);
  EXPECT_EQ(0x8u, events[4].reg_off);
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

// Reads under one mask and wanted value at different locations are not
// iterations of one loop, even when their polarities flip like one.
TEST(LoopLiftTest, SameMaskReadsAtDifferentAddressesAreNotOneLoop) {
  // A read of (bind & 1) <cmp> 0 at shared-memory dma0 + |off|, or at
  // register |off| of |device|.
  auto read = [](EventKind kind, uint16_t device, uint64_t off, const std::string& bind,
                 Cmp cmp) {
    TemplateEvent rd;
    rd.kind = kind;
    rd.device = device;
    if (kind == EventKind::kShmRead) {
      rd.addr = Expr::Binary(ExprOp::kAdd, Expr::Input("dma0"), Expr::Const(off));
    } else {
      rd.reg_off = off;
    }
    rd.bind = bind;
    rd.constraint.AddAtom(ConstraintAtom{
        Expr::Binary(ExprOp::kAnd, Expr::Input(bind), Expr::Const(1)), cmp, Expr::Const(0)});
    rd.state_changing = true;
    return rd;
  };
  for (EventKind kind : {EventKind::kShmRead, EventKind::kRegRead}) {
    SCOPED_TRACE(EventKindName(kind));
    std::vector<TemplateEvent> events = {read(kind, 1, 0x10, "din0", Cmp::kEq),
                                         read(kind, 1, 0x14, "din1", Cmp::kNe)};
    EXPECT_EQ(0, LiftPollingLoops(&events));
    EXPECT_EQ(2u, events.size());
    // The same two reads at one location are a loop.
    events = {read(kind, 1, 0x10, "din0", Cmp::kEq), read(kind, 1, 0x10, "din1", Cmp::kNe)};
    EXPECT_EQ(1, LiftPollingLoops(&events));
    EXPECT_EQ(1u, events.size());
  }
  // One register offset on two devices is two locations.
  std::vector<TemplateEvent> events = {read(EventKind::kRegRead, 1, 0x10, "din0", Cmp::kEq),
                                       read(EventKind::kRegRead, 2, 0x10, "din1", Cmp::kNe)};
  EXPECT_EQ(0, LiftPollingLoops(&events));
  EXPECT_EQ(2u, events.size());
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
    std::vector<uint8_t> buf(5 * 512);
    RecordSession s(&tb_.kern_io(), kMmcEntry, "A", tb_.mmc_id());
    TValue rw = s.ScalarParam("rw", kMmcRwRead);
    TValue cnt = s.ScalarParam("blkcnt", 5);
    TValue id = s.ScalarParam("blkid", 2048);
    TValue fl = s.ScalarParam("flag", 0);
    s.BufferParam("buf", buf.data(), buf.size());
    BcmSdhostDriver d(&s, tb_.mmc_config());
    ASSERT_EQ(Status::kOk, d.Transfer(rw, cnt, id, fl, buf.data(), buf.size()));
    raw5 = s.raw();
  }
  RawRecording raw7;
  {
    tb_.ResetDevices();
    tb_.kern_io().ReleaseDma();
    std::vector<uint8_t> buf(7 * 512);
    RecordSession s(&tb_.kern_io(), kMmcEntry, "B", tb_.mmc_id());
    TValue rw = s.ScalarParam("rw", kMmcRwRead);
    TValue cnt = s.ScalarParam("blkcnt", 7);
    TValue id = s.ScalarParam("blkid", 4096);
    TValue fl = s.ScalarParam("flag", 0);
    s.BufferParam("buf", buf.data(), buf.size());
    BcmSdhostDriver d(&s, tb_.mmc_config());
    ASSERT_EQ(Status::kOk, d.Transfer(rw, cnt, id, fl, buf.data(), buf.size()));
    raw7 = s.raw();
  }
  RawRecording raw12;
  {
    tb_.ResetDevices();
    tb_.kern_io().ReleaseDma();
    std::vector<uint8_t> buf(12 * 512);
    RecordSession s(&tb_.kern_io(), kMmcEntry, "C", tb_.mmc_id());
    TValue rw = s.ScalarParam("rw", kMmcRwRead);
    TValue cnt = s.ScalarParam("blkcnt", 12);
    TValue id = s.ScalarParam("blkid", 2048);
    TValue fl = s.ScalarParam("flag", 0);
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
  std::vector<uint8_t> buf(512);
  RecordSession s(&tb_.kern_io(), kMmcEntry, "bad", tb_.mmc_id());
  TValue rw = s.ScalarParam("rw", kMmcRwRead);
  TValue cnt = s.ScalarParam("blkcnt", 1);
  TValue id = s.ScalarParam("blkid", 0);
  TValue fl = s.ScalarParam("flag", 0);
  s.BufferParam("buf", buf.data(), buf.size());
  BcmSdhostDriver d(&s, tb_.mmc_config());
  EXPECT_NE(Status::kOk, d.Transfer(rw, cnt, id, fl, buf.data(), buf.size()));
  tb_.sd_medium().set_present(true);
}

// Pins the sealed bytes of every recorded package: each registered class plus
// display and touch. Recording runs in virtual time on seeded devices, so any
// change to what the recorder logs, attaches or lifts shows up here.
TEST(RecordedPackageTest, SealedPackagesArePinned) {
  const std::map<std::string, std::string> kSha256 = {
      {"mmc", "3042af11f3067ad47a46be6e4d6d256cd57b61170009eb79b1e2fa7059bcebf0"},
      {"usb", "96ca08ca5484b95577d3fdc3f8143afdc266088724ea0eb44cb55e3eb2cadb61"},
      {"camera", "c7722707f3bdf077195efccc4e043d20dc414a585318944673439a175b6db242"},
      {"ftpm", "192a98cb0a8e4de8d322bd704416abe6ae342d7233fac61a442e9bf1dbb120e8"},
      {"cryptoacc", "be1db47d3914b49584aec9858b148a95c2425c792c109f4960e1e4065a774497"},
      {"display", "888123d716d7de42267b12dd4855c61da4f701f1d68ffc7aaa2db682266e95aa"},
      {"touch", "c5cf6f019a8f6d0c0adab690ac1f02078b393b0023c693761de0fa879622e9ce"},
  };
  std::vector<std::pair<std::string, std::vector<uint8_t> (*)()>> builds;
  for (const DriverletClassSpec& c : RegisteredDriverletClasses()) {
    builds.emplace_back(c.name, c.build_package);
  }
  builds.emplace_back("display", &BuildDisplayPackage);
  builds.emplace_back("touch", &BuildTouchPackage);
  for (const auto& [name, build] : builds) {
    auto pin = kSha256.find(name);
    ASSERT_NE(kSha256.end(), pin) << "no pinned digest for " << name;
    std::vector<uint8_t> sealed = build();
    ASSERT_FALSE(sealed.empty()) << name;
    EXPECT_EQ(pin->second, Sha256::HexDigest(Sha256::Hash(sealed.data(), sealed.size())))
        << name;
  }
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
