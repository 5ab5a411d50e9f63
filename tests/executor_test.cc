// Executor unit tests against a scripted fake ReplayContext — every event kind,
// binding/constraint semantics, poll loops, and the security boundary checks,
// without the full device stack.
#include <gtest/gtest.h>

#include <deque>

#include "src/core/executor.h"
#include "src/obs/edge.h"

namespace dlt {
namespace {

class FakeContext : public ReplayContext {
 public:
  // Scripted register read values, consumed in order; repeats the last one.
  std::deque<uint32_t> reg_values;
  std::map<PhysAddr, uint32_t> mem;
  std::vector<std::pair<uint64_t, uint32_t>> reg_writes;  // (dev<<32|off, value)
  PhysAddr pool_next = 0x1000;
  PhysAddr pool_base = 0x1000;
  uint64_t pool_size = 0x100000;
  bool irq_ok = true;
  int resets = 0;
  uint64_t now = 0;

  Result<uint32_t> RegRead32(uint16_t device, uint64_t offset) override {
    (void)device;
    (void)offset;
    if (reg_values.empty()) {
      return 0u;
    }
    uint32_t v = reg_values.front();
    if (reg_values.size() > 1) {
      reg_values.pop_front();
    }
    return v;
  }
  Status RegWrite32(uint16_t device, uint64_t offset, uint32_t value) override {
    reg_writes.push_back({(static_cast<uint64_t>(device) << 32) | offset, value});
    return Status::kOk;
  }
  Result<uint32_t> MemRead32(PhysAddr addr) override { return mem[addr]; }
  Status MemWrite32(PhysAddr addr, uint32_t value) override {
    mem[addr] = value;
    return Status::kOk;
  }
  Status MemCopyIn(PhysAddr dst, const uint8_t* src, size_t len) override {
    for (size_t i = 0; i < len; ++i) {
      bytes[dst + i] = src[i];
    }
    return Status::kOk;
  }
  Status MemCopyOut(uint8_t* dst, PhysAddr src, size_t len) override {
    for (size_t i = 0; i < len; ++i) {
      dst[i] = bytes.count(src + i) ? bytes[src + i] : 0;
    }
    return Status::kOk;
  }
  Result<PhysAddr> DmaAlloc(uint64_t size) override {
    PhysAddr a = pool_next;
    pool_next += (size + 0xfff) & ~0xfffull;
    if (pool_next > pool_base + pool_size) {
      return Status::kNoMemory;
    }
    return a;
  }
  void DmaReleaseAll() override { pool_next = pool_base; }
  Result<uint32_t> RandomU32() override { return 0x1234u; }
  uint64_t TimestampUs() override { return now; }
  Status WaitForIrq(int, uint64_t) override { return irq_ok ? Status::kOk : Status::kTimeout; }
  void DelayUs(uint64_t us) override { now += us; }
  Status SoftResetDevice(uint16_t) override {
    ++resets;
    return Status::kOk;
  }
  bool AddressAllowed(PhysAddr addr, size_t len) override {
    return addr >= pool_base && addr + len <= pool_base + pool_size;
  }
  void ChargeReplayOverheadNs(uint64_t) override {}

  std::map<PhysAddr, uint8_t> bytes;
};

TemplateEvent RegReadEv(const std::string& bind, Constraint c = {}, bool sc = false) {
  TemplateEvent e;
  e.kind = EventKind::kRegRead;
  e.device = 1;
  e.reg_off = 0x20;
  e.bind = bind;
  e.constraint = std::move(c);
  e.state_changing = sc;
  return e;
}

TEST(ExecutorTest, BindsInputsAndEvaluatesOutputExpressions) {
  FakeContext ctx;
  ctx.reg_values = {0x77};
  InteractionTemplate t;
  t.name = "T";
  t.events.push_back(RegReadEv("din0"));
  TemplateEvent wr;
  wr.kind = EventKind::kRegWrite;
  wr.device = 1;
  wr.reg_off = 0x30;
  wr.value = Expr::Binary(ExprOp::kAdd, Expr::Input("din0"), Expr::Input("blkcnt"));
  t.events.push_back(wr);

  ReplayArgs args;
  args.scalars["blkcnt"] = 3;
  Executor exec(&ctx, &t, &args);
  DivergenceReport report;
  ASSERT_EQ(Status::kOk, exec.Run(&report));
  ASSERT_EQ(1u, ctx.reg_writes.size());
  EXPECT_EQ(0x7au, ctx.reg_writes[0].second);  // 0x77 + 3
}

TEST(ExecutorTest, ConstraintViolationDiverges) {
  FakeContext ctx;
  ctx.reg_values = {0x2};  // the recording expects 0x1 (paper Fig. 2c)
  InteractionTemplate t;
  t.name = "T";
  Constraint c;
  c.AddAtom(ConstraintAtom{Expr::Input("din0"), Cmp::kEq, Expr::Const(0x1)});
  t.events.push_back(RegReadEv("din0", c, /*sc=*/true));
  ReplayArgs args;
  Executor exec(&ctx, &t, &args);
  DivergenceReport report;
  EXPECT_EQ(Status::kDiverged, exec.Run(&report));
  EXPECT_TRUE(report.valid);
  EXPECT_EQ(0x2u, report.observed);
  EXPECT_EQ(0u, report.event_index);
}

TEST(ExecutorTest, IrqTimeoutDiverges) {
  FakeContext ctx;
  ctx.irq_ok = false;
  InteractionTemplate t;
  t.name = "T";
  TemplateEvent irq;
  irq.kind = EventKind::kWaitIrq;
  irq.irq_line = 5;
  irq.timeout_us = 1000;
  t.events.push_back(irq);
  ReplayArgs args;
  Executor exec(&ctx, &t, &args);
  DivergenceReport report;
  EXPECT_EQ(Status::kDiverged, exec.Run(&report));
}

TEST(ExecutorTest, PollLoopTerminatesOnCondition) {
  FakeContext ctx;
  ctx.reg_values = {0, 0, 0, 0x8000};  // three misses, then the bit appears
  InteractionTemplate t;
  t.name = "T";
  TemplateEvent poll;
  poll.kind = EventKind::kPollReg;
  poll.device = 1;
  poll.reg_off = 0x0;
  poll.mask = 0x8000;
  poll.want = 0x8000;
  poll.poll_cmp = Cmp::kEq;
  poll.timeout_us = 10'000;
  poll.interval_us = 10;
  poll.bind = "final";
  t.events.push_back(poll);
  TemplateEvent wr;
  wr.kind = EventKind::kRegWrite;
  wr.device = 1;
  wr.reg_off = 0x4;
  wr.value = Expr::Input("final");
  t.events.push_back(wr);
  ReplayArgs args;
  Executor exec(&ctx, &t, &args);
  DivergenceReport report;
  ASSERT_EQ(Status::kOk, exec.Run(&report));
  EXPECT_EQ(30u, ctx.now);  // three interval delays
  EXPECT_EQ(0x8000u, ctx.reg_writes[0].second);  // terminal value was bound
}

TEST(ExecutorTest, PollTimeoutDiverges) {
  FakeContext ctx;
  ctx.reg_values = {0};
  InteractionTemplate t;
  t.name = "T";
  TemplateEvent poll;
  poll.kind = EventKind::kPollReg;
  poll.mask = 1;
  poll.want = 1;
  poll.timeout_us = 100;
  poll.interval_us = 10;
  t.events.push_back(poll);
  ReplayArgs args;
  Executor exec(&ctx, &t, &args);
  DivergenceReport report;
  EXPECT_EQ(Status::kDiverged, exec.Run(&report));
}

TEST(ExecutorTest, GreaterThanPollCondition) {
  FakeContext ctx;
  ctx.reg_values = {4, 4, 9};  // poll until value > 4 (camera cursor style)
  InteractionTemplate t;
  t.name = "T";
  TemplateEvent poll;
  poll.kind = EventKind::kPollReg;
  poll.mask = 0xffffffff;
  poll.want = 4;
  poll.poll_cmp = Cmp::kGt;
  poll.timeout_us = 10'000;
  poll.interval_us = 50;
  t.events.push_back(poll);
  ReplayArgs args;
  Executor exec(&ctx, &t, &args);
  DivergenceReport report;
  EXPECT_EQ(Status::kOk, exec.Run(&report));
}

TEST(ExecutorTest, ShmAddressOutsideRunAllocationsBlocked) {
  FakeContext ctx;
  InteractionTemplate t;
  t.name = "T";
  TemplateEvent w;
  w.kind = EventKind::kShmWrite;
  w.addr = Expr::Const(0x2000);  // inside the pool, but never allocated this run
  w.value = Expr::Const(1);
  t.events.push_back(w);
  ReplayArgs args;
  Executor exec(&ctx, &t, &args);
  DivergenceReport report;
  EXPECT_EQ(Status::kPermissionDenied, exec.Run(&report));
}

TEST(ExecutorTest, ShmWriteInsideAllocationWorks) {
  FakeContext ctx;
  InteractionTemplate t;
  t.name = "T";
  TemplateEvent alloc;
  alloc.kind = EventKind::kDmaAlloc;
  alloc.bind = "dma0";
  alloc.value = Expr::Const(4096);
  t.events.push_back(alloc);
  TemplateEvent w;
  w.kind = EventKind::kShmWrite;
  w.addr = Expr::Binary(ExprOp::kAdd, Expr::Input("dma0"), Expr::Const(8));
  w.value = Expr::Const(0xabcd);
  t.events.push_back(w);
  ReplayArgs args;
  Executor exec(&ctx, &t, &args);
  DivergenceReport report;
  ASSERT_EQ(Status::kOk, exec.Run(&report));
  EXPECT_EQ(0xabcdu, ctx.mem[0x1008]);
}

TEST(ExecutorTest, CopyRespectsSymbolicLengths) {
  FakeContext ctx;
  InteractionTemplate t;
  t.name = "T";
  t.params = {{"n", false}, {"buf", true}};
  TemplateEvent alloc;
  alloc.kind = EventKind::kDmaAlloc;
  alloc.bind = "dma0";
  alloc.value = Expr::Const(4096);
  t.events.push_back(alloc);
  TemplateEvent cp;
  cp.kind = EventKind::kCopyToDma;
  cp.addr = Expr::Input("dma0");
  cp.buffer = "buf";
  cp.buf_offset = Expr::Const(0);
  cp.value = Expr::Binary(ExprOp::kMul, Expr::Input("n"), Expr::Const(4));
  t.events.push_back(cp);

  std::vector<uint8_t> buf = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  ReplayArgs args;
  args.scalars["n"] = 2;  // copy 8 of the 12 bytes
  args.buffers["buf"] = BufferView{buf.data(), buf.size()};
  Executor exec(&ctx, &t, &args);
  DivergenceReport report;
  ASSERT_EQ(Status::kOk, exec.Run(&report));
  EXPECT_EQ(8u, ctx.bytes.size());
  EXPECT_EQ(1, ctx.bytes[0x1000]);
  EXPECT_EQ(8, ctx.bytes[0x1007]);
}

TEST(ExecutorTest, DanglingSymbolIsCorruptNotCrash) {
  FakeContext ctx;
  InteractionTemplate t;
  t.name = "T";
  TemplateEvent w;
  w.kind = EventKind::kRegWrite;
  w.value = Expr::Input("never_bound");
  t.events.push_back(w);
  ReplayArgs args;
  Executor exec(&ctx, &t, &args);
  DivergenceReport report;
  EXPECT_EQ(Status::kCorrupt, exec.Run(&report));
}

TEST(ExecutorTest, DmaPoolExhaustionDiverges) {
  FakeContext ctx;
  ctx.pool_size = 0x1000;
  InteractionTemplate t;
  t.name = "T";
  for (int i = 0; i < 3; ++i) {
    TemplateEvent alloc;
    alloc.kind = EventKind::kDmaAlloc;
    alloc.bind = "dma" + std::to_string(i);
    alloc.value = Expr::Const(4096);
    t.events.push_back(alloc);
  }
  ReplayArgs args;
  Executor exec(&ctx, &t, &args);
  DivergenceReport report;
  EXPECT_EQ(Status::kDiverged, exec.Run(&report));
}

TEST(ExecutorTest, EnvInputsBindForLaterUse) {
  FakeContext ctx;
  ctx.now = 42;
  InteractionTemplate t;
  t.name = "T";
  TemplateEvent ts;
  ts.kind = EventKind::kGetTimestamp;
  ts.bind = "ts0";
  t.events.push_back(ts);
  TemplateEvent rnd;
  rnd.kind = EventKind::kGetRandBytes;
  rnd.bind = "rand0";
  t.events.push_back(rnd);
  TemplateEvent w;
  w.kind = EventKind::kRegWrite;
  w.value = Expr::Binary(ExprOp::kXor, Expr::Input("ts0"), Expr::Input("rand0"));
  t.events.push_back(w);
  ReplayArgs args;
  Executor exec(&ctx, &t, &args);
  DivergenceReport report;
  ASSERT_EQ(Status::kOk, exec.Run(&report));
  EXPECT_EQ(42u ^ 0x1234u, ctx.reg_writes[0].second);
}

// The boundary fuzzer's executor signal: one coverage cell per event kind,
// hit once per executed event and labelled after the kind.
TEST(ExecutorTest, HitsOneEdgeCellPerExecutedEventKind) {
  FakeContext ctx;
  ctx.reg_values = {7};
  InteractionTemplate t;
  t.name = "T";
  t.events.push_back(RegReadEv("v"));
  TemplateEvent wr;
  wr.kind = EventKind::kRegWrite;
  wr.device = 1;
  wr.reg_off = 0x4;
  wr.value = Expr::Input("v");
  t.events.push_back(wr);
  t.events.push_back(wr);
  ReplayArgs args;
  EdgeCoverage& ec = EdgeCoverage::Get();
  ec.Reset();
  ec.Arm();
  Executor exec(&ctx, &t, &args);
  DivergenceReport report;
  Status s = exec.Run(&report);
  ec.Disarm();
  ASSERT_EQ(Status::kOk, s);
  const size_t read_cell = kEdgeKindBase + static_cast<size_t>(EventKind::kRegRead);
  const size_t write_cell = kEdgeKindBase + static_cast<size_t>(EventKind::kRegWrite);
  EXPECT_EQ(1u, ec.count(read_cell));
  EXPECT_EQ(2u, ec.count(write_cell));
  EXPECT_EQ(2u, ec.distinct());
  ec.Reset();
  for (int k = 0; k <= static_cast<int>(EventKind::kPollShm); ++k) {
    EXPECT_EQ(std::string("exec.") + EventKindName(static_cast<EventKind>(k)),
              EdgeName(kEdgeKindBase + static_cast<size_t>(k)));
  }
}

}  // namespace
}  // namespace dlt
