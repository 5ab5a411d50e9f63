// Unit tests for the SoC substrate: clock, interrupts, TZASC, address space,
// CMA pool, DMA engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "src/obs/telemetry.h"
#include "src/soc/cma_pool.h"
#include "src/soc/machine.h"

namespace dlt {
namespace {

TEST(SimClockTest, AdvanceFiresDueEventsInOrder) {
  SimClock clock;
  std::vector<int> fired;
  clock.ScheduleIn(10, [&] { fired.push_back(1); });
  clock.ScheduleIn(5, [&] { fired.push_back(2); });
  clock.ScheduleIn(20, [&] { fired.push_back(3); });
  clock.Advance(15);
  EXPECT_EQ((std::vector<int>{2, 1}), fired);
  EXPECT_EQ(15u, clock.now_us());
  clock.Advance(10);
  EXPECT_EQ((std::vector<int>{2, 1, 3}), fired);
}

TEST(SimClockTest, SameDeadlineFiresInScheduleOrder) {
  SimClock clock;
  std::vector<int> fired;
  clock.ScheduleIn(7, [&] { fired.push_back(1); });
  clock.ScheduleIn(7, [&] { fired.push_back(2); });
  clock.Advance(7);
  EXPECT_EQ((std::vector<int>{1, 2}), fired);
}

TEST(SimClockTest, CancelPreventsFiring) {
  SimClock clock;
  bool fired = false;
  SimClock::EventId id = clock.ScheduleIn(5, [&] { fired = true; });
  EXPECT_TRUE(clock.Cancel(id));
  EXPECT_FALSE(clock.Cancel(id));  // double-cancel reports failure
  clock.Advance(10);
  EXPECT_FALSE(fired);
}

TEST(SimClockTest, CallbacksMayScheduleMoreEvents) {
  SimClock clock;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      clock.ScheduleIn(1, chain);
    }
  };
  clock.ScheduleIn(1, chain);
  clock.Advance(100);
  EXPECT_EQ(5, count);
}

TEST(SimClockTest, StepToNextEventJumps) {
  SimClock clock;
  bool fired = false;
  clock.ScheduleIn(1000, [&] { fired = true; });
  EXPECT_TRUE(clock.StepToNextEvent());
  EXPECT_TRUE(fired);
  EXPECT_EQ(1000u, clock.now_us());
  EXPECT_FALSE(clock.StepToNextEvent());
}

TEST(SimClockTest, NextEventTimeSkipsCancelled) {
  SimClock clock;
  SimClock::EventId a = clock.ScheduleIn(5, [] {});
  clock.ScheduleIn(9, [] {});
  clock.Cancel(a);
  ASSERT_TRUE(clock.NextEventTime().has_value());
  EXPECT_EQ(9u, *clock.NextEventTime());
}

TEST(SimClockTest, CancelAfterFiringReturnsFalse) {
  // Devices cancel the ids they hold on every reset, fired or not; a stale
  // cancel must neither report success nor disturb the live events.
  SimClock clock;
  int fired = 0;
  SimClock::EventId a = clock.ScheduleIn(5, [&] { ++fired; });
  SimClock::EventId b = clock.ScheduleIn(50, [&] { ++fired; });
  EXPECT_EQ(2u, clock.pending_events());
  clock.Advance(10);
  EXPECT_EQ(1, fired);
  EXPECT_EQ(1u, clock.pending_events());
  EXPECT_FALSE(clock.Cancel(a));
  EXPECT_FALSE(clock.Cancel(a));
  EXPECT_FALSE(clock.Cancel(SimClock::kInvalidEvent));
  EXPECT_FALSE(clock.Cancel(b + 100));  // never scheduled
  EXPECT_EQ(1u, clock.pending_events());
  EXPECT_TRUE(clock.Cancel(b));
  EXPECT_EQ(0u, clock.pending_events());
  EXPECT_FALSE(clock.Cancel(b));
  clock.Advance(100);
  EXPECT_EQ(1, fired);
  EXPECT_EQ(0u, clock.pending_events());
  EXPECT_FALSE(clock.NextEventTime().has_value());
}

// Counts copies of itself; moves are free.
struct CopyCounter {
  explicit CopyCounter(int* counter) : copies(counter) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
  CopyCounter(CopyCounter&&) = default;
  int* copies;
};

TEST(SimClockTest, FiredCallbackIsMovedNotCopied) {
  // A callback may own a large payload; firing it must not copy it.
  SimClock clock;
  int copies = 0;
  int calls = 0;
  for (uint64_t t = 1; t <= 4; ++t) {
    clock.ScheduleIn(t, [c = CopyCounter(&copies), &calls] {
      (void)c;
      ++calls;
    });
  }
  int scheduled = copies;
  clock.Advance(2);                     // AdvanceTo fires two
  EXPECT_TRUE(clock.StepToNextEvent());  // and StepToNextEvent one
  ASSERT_TRUE(clock.NextEventTime().has_value());
  clock.Advance(10);
  EXPECT_EQ(4, calls);
  EXPECT_EQ(scheduled, copies);
}

TEST(IrqTest, RaiseClearPendingAndCounts) {
  InterruptController irq;
  EXPECT_FALSE(irq.Pending(5));
  irq.Raise(5);
  irq.Raise(5);  // still one level-triggered assertion
  EXPECT_TRUE(irq.Pending(5));
  EXPECT_EQ(1u, irq.raise_count(5));
  irq.Clear(5);
  EXPECT_FALSE(irq.Pending(5));
  irq.Raise(5);
  EXPECT_EQ(2u, irq.raise_count(5));
}

TEST(IrqTest, HighLinesWork) {
  InterruptController irq;
  irq.Raise(70);
  EXPECT_TRUE(irq.Pending(70));
  EXPECT_FALSE(irq.Pending(69));
  irq.Clear(70);
  EXPECT_FALSE(irq.Pending(70));
}

TEST(TzascTest, LaterAssignmentsOverride) {
  Tzasc tz;
  tz.AssignRegion(0x1000, 0x1000, World::kSecure);
  EXPECT_EQ(World::kSecure, tz.OwnerOf(0x1800));
  tz.AssignRegion(0x1800, 0x100, World::kNormal);
  EXPECT_EQ(World::kNormal, tz.OwnerOf(0x1880));
  EXPECT_EQ(World::kSecure, tz.OwnerOf(0x1000));
}

TEST(TzascTest, SecureAccessesEverythingNormalOnlyNormal) {
  Tzasc tz;
  tz.AssignRegion(0x2000, 0x1000, World::kSecure);
  EXPECT_TRUE(tz.AllowsRange(World::kSecure, 0x2000, 1));
  EXPECT_TRUE(tz.AllowsRange(World::kSecure, 0x9000, 1));
  EXPECT_FALSE(tz.AllowsRange(World::kNormal, 0x2000, 1));
  EXPECT_TRUE(tz.AllowsRange(World::kNormal, 0x9000, 1));
  EXPECT_EQ(1u, tz.denied_count());
}

TEST(TzascTest, RangeChecksEveryByte) {
  Tzasc tz;
  tz.AssignRegion(0x1000, 0x1000, World::kSecure);
  tz.AssignRegion(0x1800, 0x100, World::kNormal);  // a normal hole in it
  EXPECT_TRUE(tz.AllowsRange(World::kNormal, 0x0, 0x1000));
  EXPECT_TRUE(tz.AllowsRange(World::kNormal, 0x1800, 0x100));
  EXPECT_TRUE(tz.AllowsRange(World::kNormal, 0x2000, 0x1000));
  EXPECT_TRUE(tz.AllowsRange(World::kSecure, 0x0, 0x3000));
  EXPECT_EQ(0u, tz.denied_count());
  EXPECT_FALSE(tz.AllowsRange(World::kNormal, 0x0, 0x1001));     // last byte secure
  EXPECT_FALSE(tz.AllowsRange(World::kNormal, 0x17ff, 2));       // first byte secure
  EXPECT_FALSE(tz.AllowsRange(World::kNormal, 0x1800, 0x101));   // runs out of the hole
  EXPECT_FALSE(tz.AllowsRange(World::kNormal, 0x0, 0x3000));     // both ends normal
  EXPECT_FALSE(tz.AllowsRange(World::kNormal, 0x1800, ~0ull));   // addr + size wraps
  EXPECT_EQ(5u, tz.denied_count());
  // Empty ranges touch no byte, at a region's edges too.
  EXPECT_TRUE(tz.AllowsRange(World::kNormal, 0x1000, 0));
  EXPECT_TRUE(tz.AllowsRange(World::kNormal, 0x2000, 0));
  EXPECT_EQ(5u, tz.denied_count());
}

class ScratchDevice : public MmioDevice {
 public:
  std::string_view name() const override { return "scratch"; }
  uint32_t MmioRead32(uint64_t offset) override { return static_cast<uint32_t>(offset + 1); }
  void MmioWrite32(uint64_t offset, uint32_t value) override { last_ = {offset, value}; }
  void SoftReset() override { last_ = {0, 0}; }
  std::pair<uint64_t, uint32_t> last_{0, 0};
};

TEST(AddressSpaceTest, RamReadWriteRoundTrip) {
  AddressSpace mem(nullptr);
  ASSERT_EQ(Status::kOk, mem.AddRam(0, 0x10000));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, 0x100, 0xdeadbeef));
  Result<uint32_t> v = mem.Read32(World::kNormal, 0x100);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(0xdeadbeefu, *v);
}

TEST(AddressSpaceTest, MmioRoutesToDevice) {
  AddressSpace mem(nullptr);
  ScratchDevice dev;
  ASSERT_EQ(Status::kOk, mem.MapMmio(0x4000, 0x100, &dev));
  EXPECT_EQ(0x21u, *mem.Read32(World::kNormal, 0x4020));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, 0x4024, 7));
  EXPECT_EQ(0x24u, dev.last_.first);
  EXPECT_EQ(7u, dev.last_.second);
}

TEST(AddressSpaceTest, OverlappingMappingsRejected) {
  AddressSpace mem(nullptr);
  ScratchDevice dev;
  ASSERT_EQ(Status::kOk, mem.AddRam(0, 0x1000));
  EXPECT_EQ(Status::kInvalidArg, mem.AddRam(0x800, 0x1000));
  EXPECT_EQ(Status::kInvalidArg, mem.MapMmio(0xf00, 0x200, &dev));
}

TEST(AddressSpaceTest, UnalignedMmioRejected) {
  AddressSpace mem(nullptr);
  ScratchDevice dev;
  ASSERT_EQ(Status::kOk, mem.MapMmio(0x4000, 0x100, &dev));
  EXPECT_EQ(Status::kInvalidArg, mem.Read32(World::kNormal, 0x4002).status());
}

TEST(AddressSpaceTest, TzascChecksApplyToCpuAccess) {
  Tzasc tz;
  AddressSpace mem(&tz);
  ASSERT_EQ(Status::kOk, mem.AddRam(0, 0x10000));
  tz.AssignRegion(0x8000, 0x1000, World::kSecure);
  EXPECT_EQ(Status::kPermissionDenied, mem.Write32(World::kNormal, 0x8000, 1));
  EXPECT_EQ(Status::kOk, mem.Write32(World::kSecure, 0x8000, 1));
  // Bus-master (DMA) paths are not world-checked.
  uint32_t v = 0;
  EXPECT_EQ(Status::kOk, mem.DmaRead(0x8000, &v, 4));
  EXPECT_EQ(1u, v);
}

// A CPU access is refused when any byte it touches is secure, not only its
// first or last one, and the refusal leaves the secure bytes as they were.
TEST(AddressSpaceTest, TzascChecksEveryByteOfCpuAccess) {
  Tzasc tz;
  AddressSpace mem(&tz);
  ASSERT_EQ(Status::kOk, mem.AddRam(0, 0x10000));
  tz.AssignRegion(0x8000, 0x1000, World::kSecure);
  ASSERT_EQ(Status::kOk, mem.Write32(World::kSecure, 0x8000, 0x11223344));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kSecure, 0x8040, 0x55667788));
  std::vector<uint8_t> buf(0x3000, 0xaa);

  EXPECT_EQ(Status::kPermissionDenied, mem.ReadBytes(World::kNormal, 0x7000, buf.data(), 0x3000));
  EXPECT_EQ(1u, tz.denied_count());
  EXPECT_EQ(Status::kPermissionDenied, mem.WriteBytes(World::kNormal, 0x7000, buf.data(), 0x3000));
  EXPECT_EQ(2u, tz.denied_count());
  EXPECT_EQ(Status::kPermissionDenied, mem.Read32(World::kNormal, 0x7ffe).status());
  EXPECT_EQ(3u, tz.denied_count());
  EXPECT_EQ(Status::kPermissionDenied, mem.Write32(World::kNormal, 0x7ffe, 0xaaaaaaaa));
  EXPECT_EQ(4u, tz.denied_count());
  EXPECT_EQ(Status::kPermissionDenied, mem.Read32(World::kNormal, 0x8ffe).status());
  EXPECT_EQ(5u, tz.denied_count());
  EXPECT_EQ(0x11223344u, *mem.Read32(World::kSecure, 0x8000));
  EXPECT_EQ(0x55667788u, *mem.Read32(World::kSecure, 0x8040));
  EXPECT_EQ(0u, *mem.Read32(World::kNormal, 0x7ffc)) << "a refused write landed in normal RAM";

  // Up to the edge is fine, and so is an empty access at either edge.
  EXPECT_EQ(Status::kOk, mem.ReadBytes(World::kNormal, 0x7000, buf.data(), 0x1000));
  EXPECT_EQ(Status::kOk, mem.WriteBytes(World::kNormal, 0x9000, buf.data(), 0x1000));
  EXPECT_EQ(Status::kOk, mem.ReadBytes(World::kNormal, 0x9000, buf.data(), 0));
  EXPECT_EQ(Status::kOk, mem.WriteBytes(World::kNormal, 0x8000, buf.data(), 0));
  EXPECT_EQ(5u, tz.denied_count());
}

TEST(AddressSpaceTest, WrappingAccessIsOutOfRange) {
  AddressSpace mem(nullptr);
  ASSERT_EQ(Status::kOk, mem.AddRam(0, 0x10000));
  // 2^64 - 2 + 4 wraps to 2, inside the window under an addr + len check.
  EXPECT_EQ(Status::kOutOfRange, mem.Read32(World::kNormal, ~0ull - 1).status());
  uint8_t buf[16] = {};
  EXPECT_EQ(Status::kOutOfRange, mem.DmaRead(~0ull - 1, buf, sizeof(buf)));
}

using Calls = std::vector<std::pair<size_t, size_t>>;

// A DmaFill generator that logs each call as {off, len} and writes byte i of
// the fill as Byte(i).
struct LoggedFill {
  static uint8_t Byte(size_t i) { return static_cast<uint8_t>(i * 7 + 1); }
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

// A read that lies wholly inside a pending fill is generated straight into
// the reader's buffer, once per read and with exactly its range; RAM stays as
// it was.
TEST(AddressSpaceTest, ReadInsidePendingFillGeneratesIntoReader) {
  AddressSpace mem(nullptr);
  ASSERT_EQ(Status::kOk, mem.AddRam(0, 0x10000));
  const uint8_t* ram = mem.RamPtr(0x1000, 0x100);
  LoggedFill fill;
  ASSERT_EQ(Status::kOk, mem.DmaFill(0x1000, 0x100, fill.Gen()));
  EXPECT_TRUE(fill.calls.empty()) << "the fill was written at once";

  std::vector<uint8_t> buf(0x100, 0xaa);
  ASSERT_EQ(Status::kOk, mem.ReadBytes(World::kNormal, 0x1013, buf.data(), 0x21));
  EXPECT_EQ((Calls{{0x13, 0x21}}), fill.calls);
  EXPECT_TRUE(LoggedFill::Holds(buf.data(), 0x13, 0x21));
  EXPECT_EQ(0xaa, buf[0x21]);
  ASSERT_EQ(Status::kOk, mem.DmaRead(0x1000, buf.data(), 0x100));
  EXPECT_EQ((Calls{{0x13, 0x21}, {0, 0x100}}), fill.calls);
  EXPECT_TRUE(LoggedFill::Holds(buf.data(), 0, 0x100));
  EXPECT_EQ(0x100, std::count(ram, ram + 0x100, 0)) << "a read inside the fill wrote RAM";

  // Accesses that only touch its edges leave it pending.
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, 0xffc, 1));
  ASSERT_EQ(Status::kOk, mem.WriteBytes(World::kNormal, 0x1100, buf.data(), 4));
  ASSERT_NE(nullptr, mem.RamPtr(0x1100, 0x10));
  ASSERT_EQ(Status::kOk, mem.ReadBytes(World::kNormal, 0x1000, buf.data(), 0));
  EXPECT_EQ(2u, fill.calls.size());
}

// A Read32 inside a pending fill generates its own word into the result,
// as ReadBytes does: a stray CPU word read never writes the fill to RAM.
TEST(AddressSpaceTest, Read32InsidePendingFillGeneratesOnlyItsWord) {
  AddressSpace mem(nullptr);
  ASSERT_EQ(Status::kOk, mem.AddRam(0, 0x10000));
  const uint8_t* ram = mem.RamPtr(0x1000, 0x100);
  LoggedFill fill;
  ASSERT_EQ(Status::kOk, mem.DmaFill(0x1000, 0x100, fill.Gen()));
  Result<uint32_t> v = mem.Read32(World::kNormal, 0x1040);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ((Calls{{0x40, 4}}), fill.calls);
  uint8_t word[4];
  std::memcpy(word, &*v, sizeof(word));
  EXPECT_TRUE(LoggedFill::Holds(word, 0x40, 4));
  EXPECT_EQ(0x100, std::count(ram, ram + 0x100, 0)) << "a contained Read32 wrote RAM";
}

// Any other access that overlaps a pending fill writes it out whole, once,
// and then sees RAM.
TEST(AddressSpaceTest, OverlappingAccessWritesPendingFillOutOnce) {
  const std::vector<std::pair<const char*, std::function<void(AddressSpace&)>>> accesses = {
      {"partial ReadBytes",
       [](AddressSpace& m) {
         uint8_t b[0x20];
         ASSERT_EQ(Status::kOk, m.ReadBytes(World::kNormal, 0x10f0, b, sizeof(b)));
         EXPECT_TRUE(LoggedFill::Holds(b, 0xf0, 0x10));
         EXPECT_EQ(0, b[0x10]);
       }},
      {"partial DmaRead",
       [](AddressSpace& m) {
         uint8_t b[8];
         ASSERT_EQ(Status::kOk, m.DmaRead(0xffc, b, sizeof(b)));
         EXPECT_TRUE(LoggedFill::Holds(b + 4, 0, 4));
       }},
      {"Read32 across the fill's start",
       [](AddressSpace& m) {
         Result<uint32_t> v = m.Read32(World::kNormal, 0xffe);
         ASSERT_TRUE(v.ok());
         EXPECT_EQ(static_cast<uint32_t>(LoggedFill::Byte(0)) << 16 |
                       static_cast<uint32_t>(LoggedFill::Byte(1)) << 24,
                   *v);
       }},
      {"Write32",
       [](AddressSpace& m) { ASSERT_EQ(Status::kOk, m.Write32(World::kNormal, 0x1040, 0)); }},
      {"WriteBytes",
       [](AddressSpace& m) {
         uint8_t b[0x10] = {};
         ASSERT_EQ(Status::kOk, m.WriteBytes(World::kNormal, 0x1040, b, sizeof(b)));
       }},
      {"DmaWrite",
       [](AddressSpace& m) {
         uint8_t b[0x10] = {};
         ASSERT_EQ(Status::kOk, m.DmaWrite(0x10f8, b, sizeof(b)));
       }},
      {"RamPtr", [](AddressSpace& m) { ASSERT_NE(nullptr, m.RamPtr(0x10ff, 1)); }},
  };
  for (const auto& [name, access] : accesses) {
    SCOPED_TRACE(name);
    AddressSpace mem(nullptr);
    ASSERT_EQ(Status::kOk, mem.AddRam(0, 0x10000));
    const uint8_t* ram = mem.RamPtr(0x1000, 0x100);
    LoggedFill fill;
    ASSERT_EQ(Status::kOk, mem.DmaFill(0x1000, 0x100, fill.Gen()));
    access(mem);
    EXPECT_EQ((Calls{{0, 0x100}}), fill.calls);
    // The fill landed whole; a write above then replaced its own bytes only.
    EXPECT_TRUE(LoggedFill::Holds(ram, 0, 0x40));
    EXPECT_TRUE(LoggedFill::Holds(ram + 0x50, 0x50, 0xa8));
    uint8_t b[0x100];
    ASSERT_EQ(Status::kOk, mem.ReadBytes(World::kNormal, 0x1000, b, sizeof(b)));
    ASSERT_EQ(Status::kOk, mem.DmaRead(0x1000, b, sizeof(b)));
    EXPECT_EQ(1u, fill.calls.size()) << "a landed fill was generated again";
  }
}

// The VC4 lands frames of three sizes at one address: a newer fill trims the
// old one instead of writing it out. Only the old bytes it does not cover are
// ever written, and they stay pending until an access needs them in RAM.
TEST(AddressSpaceTest, NewerFillWritesOutOnlyUncoveredOldBytes) {
  AddressSpace mem(nullptr);
  ASSERT_EQ(Status::kOk, mem.AddRam(0, 0x10000));
  const uint8_t* ram = mem.RamPtr(0x1000, 0x100);
  LoggedFill old_fill;
  LoggedFill new_fill;
  ASSERT_EQ(Status::kOk, mem.DmaFill(0x1000, 0x100, old_fill.Gen()));
  ASSERT_EQ(Status::kOk, mem.DmaFill(0x1040, 0x40, new_fill.Gen()));
  EXPECT_TRUE(old_fill.calls.empty()) << "the newer fill wrote old bytes out";
  EXPECT_TRUE(new_fill.calls.empty());
  EXPECT_EQ(0x100, std::count(ram, ram + 0x100, 0));

  // Reads inside the uncovered old bytes generate them with their own offsets.
  uint8_t b[0x20];
  ASSERT_EQ(Status::kOk, mem.ReadBytes(World::kNormal, 0x1010, b, 0x20));
  EXPECT_TRUE(LoggedFill::Holds(b, 0x10, 0x20));
  ASSERT_EQ(Status::kOk, mem.DmaRead(0x10e0, b, 0x20));
  EXPECT_TRUE(LoggedFill::Holds(b, 0xe0, 0x20));
  EXPECT_EQ((Calls{{0x10, 0x20}, {0xe0, 0x20}}), old_fill.calls);
  EXPECT_EQ(0x100, std::count(ram, ram + 0x100, 0)) << "a read inside a piece wrote RAM";

  // RamPtr lands what is pending: the old bytes outside the newer fill, and
  // the newer fill itself. The covered old bytes are never written.
  ASSERT_NE(nullptr, mem.RamPtr(0x1000, 0x100));
  EXPECT_EQ((Calls{{0x10, 0x20}, {0xe0, 0x20}, {0, 0x40}, {0x80, 0x80}}), old_fill.calls);
  EXPECT_EQ((Calls{{0, 0x40}}), new_fill.calls);
  EXPECT_TRUE(LoggedFill::Holds(ram, 0, 0x40));
  EXPECT_TRUE(LoggedFill::Holds(ram + 0x40, 0, 0x40));
  EXPECT_TRUE(LoggedFill::Holds(ram + 0x80, 0x80, 0x80));
  ASSERT_NE(nullptr, mem.RamPtr(0x1000, 0x100));
  EXPECT_EQ(4u, old_fill.calls.size());

  // A newer fill that covers the old one drops all of it; a disjoint one
  // leaves it pending.
  LoggedFill covered;
  LoggedFill larger;
  ASSERT_EQ(Status::kOk, mem.DmaFill(0x1000, 0x80, covered.Gen()));
  ASSERT_EQ(Status::kOk, mem.DmaFill(0x1000, 0x100, larger.Gen()));
  LoggedFill disjoint;
  ASSERT_EQ(Status::kOk, mem.DmaFill(0x2000, 0x10, disjoint.Gen()));
  ASSERT_NE(nullptr, mem.RamPtr(0x1000, 0x100));
  EXPECT_TRUE(covered.calls.empty());
  EXPECT_EQ((Calls{{0, 0x100}}), larger.calls);
  EXPECT_TRUE(disjoint.calls.empty());
  ASSERT_EQ(Status::kOk, mem.ReadBytes(World::kNormal, 0x2004, b, 8));
  EXPECT_EQ((Calls{{4, 8}}), disjoint.calls);
}

// A newer fill inside an older one splits it: the bytes below and above stay
// pending as two pieces, each generating from its own offset, and splitting a
// piece again keeps the offsets right.
TEST(AddressSpaceTest, FillSplitByNewerFillInsideIt) {
  AddressSpace mem(nullptr);
  ASSERT_EQ(Status::kOk, mem.AddRam(0, 0x10000));
  const uint8_t* ram = mem.RamPtr(0x1000, 0x100);
  LoggedFill outer;
  LoggedFill inner;
  LoggedFill again;
  ASSERT_EQ(Status::kOk, mem.DmaFill(0x1000, 0x100, outer.Gen()));
  ASSERT_EQ(Status::kOk, mem.DmaFill(0x1040, 0x20, inner.Gen()));
  // Landing the newer fill alone leaves both ends of the outer one pending.
  ASSERT_NE(nullptr, mem.RamPtr(0x1040, 0x20));
  EXPECT_EQ((Calls{{0, 0x20}}), inner.calls);
  EXPECT_TRUE(outer.calls.empty());
  ASSERT_EQ(Status::kOk, mem.DmaFill(0x10a0, 0x10, again.Gen()));  // inside the upper piece
  uint8_t b[0x10];
  // The first and last bytes of each of the outer fill's three pieces.
  const PhysAddr edges[] = {0x1000, 0x1030, 0x1060, 0x1090, 0x10b0, 0x10f0};
  for (PhysAddr a : edges) {
    SCOPED_TRACE(a);
    ASSERT_EQ(Status::kOk, mem.ReadBytes(World::kNormal, a, b, sizeof(b)));
    EXPECT_TRUE(LoggedFill::Holds(b, a - 0x1000, sizeof(b)));
  }
  ASSERT_EQ(Status::kOk, mem.ReadBytes(World::kNormal, 0x10a0, b, sizeof(b)));
  EXPECT_TRUE(LoggedFill::Holds(b, 0, sizeof(b)));
  EXPECT_EQ(6u, outer.calls.size());
  EXPECT_EQ(1u, again.calls.size());
  EXPECT_EQ(0xe0, std::count(ram, ram + 0x100, 0)) << "a read inside a piece wrote RAM";

  // Landing writes each piece once, at its own place.
  ASSERT_NE(nullptr, mem.RamPtr(0x1000, 0x100));
  EXPECT_EQ((Calls{{0, 0x40}, {0x60, 0x40}, {0xb0, 0x50}}),
            Calls(outer.calls.begin() + 6, outer.calls.end()));
  EXPECT_EQ((Calls{{0, 0x10}, {0, 0x10}}), again.calls);
  EXPECT_TRUE(LoggedFill::Holds(ram, 0, 0x40));
  EXPECT_TRUE(LoggedFill::Holds(ram + 0x40, 0, 0x20));
  EXPECT_TRUE(LoggedFill::Holds(ram + 0x60, 0x60, 0x40));
  EXPECT_TRUE(LoggedFill::Holds(ram + 0xa0, 0, 0x10));
  EXPECT_TRUE(LoggedFill::Holds(ram + 0xb0, 0xb0, 0x50));
}

// A read that spans two pieces lies inside neither: it lands both, and only
// them, then reads RAM.
TEST(AddressSpaceTest, ReadSpanningTwoPiecesLandsBoth) {
  AddressSpace mem(nullptr);
  ASSERT_EQ(Status::kOk, mem.AddRam(0, 0x10000));
  const uint8_t* ram = mem.RamPtr(0x1000, 0x100);
  LoggedFill old_fill;
  LoggedFill new_fill;
  ASSERT_EQ(Status::kOk, mem.DmaFill(0x1000, 0x100, old_fill.Gen()));
  ASSERT_EQ(Status::kOk, mem.DmaFill(0x1040, 0x40, new_fill.Gen()));
  uint8_t b[0x20];
  ASSERT_EQ(Status::kOk, mem.ReadBytes(World::kNormal, 0x1030, b, sizeof(b)));
  EXPECT_TRUE(LoggedFill::Holds(b, 0x30, 0x10));
  EXPECT_TRUE(LoggedFill::Holds(b + 0x10, 0, 0x10));
  EXPECT_EQ((Calls{{0, 0x40}}), old_fill.calls);
  EXPECT_EQ((Calls{{0, 0x40}}), new_fill.calls);
  EXPECT_TRUE(LoggedFill::Holds(ram, 0, 0x40));
  EXPECT_TRUE(LoggedFill::Holds(ram + 0x40, 0, 0x40));
  EXPECT_EQ(0x80, std::count(ram + 0x80, ram + 0x100, 0)) << "the third piece landed";

  // The piece the read did not touch is still pending.
  ASSERT_EQ(Status::kOk, mem.DmaRead(0x1080, b, sizeof(b)));
  EXPECT_TRUE(LoggedFill::Holds(b, 0x80, 0x20));
  EXPECT_EQ((Calls{{0, 0x40}, {0x80, 0x20}}), old_fill.calls);
}

// Past kMaxPendingPieces pieces the oldest lands, so a stream of disjoint
// fills keeps a bounded list.
TEST(AddressSpaceTest, PieceCapLandsTheOldest) {
  AddressSpace mem(nullptr);
  ASSERT_EQ(Status::kOk, mem.AddRam(0, 0x10000));
  const uint8_t* ram = mem.RamPtr(0, 0x10000);
  const size_t cap = AddressSpace::kMaxPendingPieces;
  std::vector<LoggedFill> fills(cap + 2);
  for (size_t i = 0; i < cap; ++i) {
    ASSERT_EQ(Status::kOk, mem.DmaFill(0x1000 * (i + 1), 0x10, fills[i].Gen()));
  }
  for (const LoggedFill& f : fills) {
    EXPECT_TRUE(f.calls.empty()) << "a fill landed below the cap";
  }
  ASSERT_EQ(Status::kOk, mem.DmaFill(0x1000 * (cap + 1), 0x10, fills[cap].Gen()));
  EXPECT_EQ((Calls{{0, 0x10}}), fills[0].calls);
  EXPECT_TRUE(LoggedFill::Holds(ram + 0x1000, 0, 0x10));
  for (size_t i = 1; i <= cap; ++i) {
    EXPECT_TRUE(fills[i].calls.empty()) << i;
  }

  // A fill that splits a piece adds two: the two oldest land.
  ASSERT_EQ(Status::kOk, mem.DmaFill(0x1000 * cap + 4, 4, fills[cap + 1].Gen()));
  EXPECT_EQ((Calls{{0, 0x10}}), fills[1].calls);
  EXPECT_EQ((Calls{{0, 0x10}}), fills[2].calls);
  for (size_t i = 3; i <= cap + 1; ++i) {
    EXPECT_TRUE(fills[i].calls.empty()) << i;
  }
}

// The TZASC check comes first: a refused read generates nothing and leaves
// the fill pending for a reader the TZASC allows.
TEST(AddressSpaceTest, RefusedReadOfPendingFillGeneratesNothing) {
  Tzasc tz;
  AddressSpace mem(&tz);
  ASSERT_EQ(Status::kOk, mem.AddRam(0, 0x10000));
  tz.AssignRegion(0x1000, 0x1000, World::kSecure);
  LoggedFill fill;
  ASSERT_EQ(Status::kOk, mem.DmaFill(0x1000, 0x100, fill.Gen()));
  uint8_t b[0x10] = {};
  EXPECT_EQ(Status::kPermissionDenied, mem.ReadBytes(World::kNormal, 0x1000, b, sizeof(b)));
  EXPECT_EQ(Status::kPermissionDenied, mem.Read32(World::kNormal, 0x1000).status());
  EXPECT_EQ(Status::kPermissionDenied, mem.WriteBytes(World::kNormal, 0x1000, b, sizeof(b)));
  EXPECT_TRUE(fill.calls.empty());
  ASSERT_EQ(Status::kOk, mem.ReadBytes(World::kSecure, 0x1000, b, sizeof(b)));
  EXPECT_EQ((Calls{{0, 0x10}}), fill.calls);
}

// A fill that is not wholly RAM moves nothing and leaves nothing pending.
TEST(AddressSpaceTest, FillOutsideRamIsOutOfRangeAndLeavesNothingPending) {
  AddressSpace mem(nullptr);
  ASSERT_EQ(Status::kOk, mem.AddRam(0, 0x10000));
  LoggedFill fill;
  EXPECT_EQ(Status::kOutOfRange, mem.DmaFill(0x20000, 0x10, fill.Gen()));
  EXPECT_EQ(Status::kOutOfRange, mem.DmaFill(0xfff0, 0x20, fill.Gen()));  // runs off RAM
  EXPECT_EQ(Status::kOutOfRange, mem.DmaFill(~0ull - 1, 0x10, fill.Gen()));  // wraps
  const uint8_t* ram = mem.RamPtr(0, 0x10000);
  ASSERT_NE(nullptr, ram);
  EXPECT_TRUE(fill.calls.empty());
  EXPECT_EQ(0x10000, std::count(ram, ram + 0x10000, 0));
}

// Records what the bus fault hook sees.
class RecordingBusHook : public BusFaultHook {
 public:
  void OnDmaRead(PhysAddr, uint8_t*, size_t) override {}
  void OnDmaWrite(PhysAddr a, uint8_t* data, size_t n) override {
    writes.push_back({a, std::vector<uint8_t>(data, data + n)});
  }
  std::vector<std::pair<PhysAddr, std::vector<uint8_t>>> writes;
};

// With a bus fault hook installed a fill is written at once, and OnDmaWrite
// sees the whole write in RAM, as a fault plan expects.
TEST(AddressSpaceTest, FaultHookMakesFillImmediate) {
  AddressSpace mem(nullptr);
  ASSERT_EQ(Status::kOk, mem.AddRam(0, 0x10000));
  RecordingBusHook hook;
  mem.set_bus_fault_hook(&hook);
  LoggedFill fill;
  ASSERT_EQ(Status::kOk, mem.DmaFill(0x1000, 0x100, fill.Gen()));
  EXPECT_EQ((Calls{{0, 0x100}}), fill.calls);
  ASSERT_EQ(1u, hook.writes.size());
  EXPECT_EQ(0x1000u, hook.writes[0].first);
  ASSERT_EQ(0x100u, hook.writes[0].second.size());
  EXPECT_TRUE(LoggedFill::Holds(hook.writes[0].second.data(), 0, 0x100));
  uint8_t b[0x10];
  ASSERT_EQ(Status::kOk, mem.ReadBytes(World::kNormal, 0x1010, b, sizeof(b)));
  EXPECT_TRUE(LoggedFill::Holds(b, 0x10, 0x10));
  EXPECT_EQ(1u, fill.calls.size());
  mem.set_bus_fault_hook(nullptr);
}

TEST(CmaPoolTest, WrappingRangesAreRejected) {
  // The TEE pool's window: 3 MB at 48 MB. Each rejected request below wraps
  // past 2^64 under an addr + len <= base + size check.
  constexpr PhysAddr kBase = 0x0300'0000;
  constexpr uint64_t kSize = 3ull << 20;
  CmaPool pool(kBase, kSize);
  EXPECT_FALSE(pool.Alloc(0 - (1ull << 20)).ok());  // 2^64 - 1 MB
  EXPECT_EQ(0u, pool.used());

  Result<PhysAddr> a = pool.Alloc(16);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(kBase, *a);
  EXPECT_TRUE(pool.Contains(*a, 16));
  EXPECT_FALSE(pool.Contains(kBase, 0 - kBase + 16));  // 2^64 - base + 16
  EXPECT_FALSE(pool.Contains(0 - 2ull, 4));            // 2^64 - 2

  // The rest of the pool after the 16 KB-aligned first allocation.
  Result<PhysAddr> rest = pool.Alloc(kSize - 0x4000);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(kBase + 0x4000, *rest);
  EXPECT_EQ(kSize, pool.used());
  EXPECT_FALSE(pool.Alloc(1).ok());
}

class MachineDmaTest : public ::testing::Test {
 protected:
  Machine machine_;
};

TEST_F(MachineDmaTest, MemToMemCopyViaControlBlock) {
  auto& mem = machine_.mem();
  const char* msg = "driverlets move data";
  ASSERT_EQ(Status::kOk, mem.WriteBytes(World::kNormal, 0x1000, msg, 21));
  DmaControlBlock cb{};
  cb.ti = kDmaTiSrcInc | kDmaTiDestInc | kDmaTiIntEn;
  cb.source_ad = 0x1000;
  cb.dest_ad = 0x2000;
  cb.txfr_len = 21;
  cb.nextconbk = 0;
  ASSERT_EQ(Status::kOk, mem.WriteBytes(World::kNormal, 0x3000, &cb, sizeof(cb)));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kDmaEngineBase + kDmaConblkAd, 0x3000));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kDmaEngineBase + kDmaCs, kDmaCsActive));
  machine_.clock().Advance(1000);
  char out[32] = {};
  ASSERT_EQ(Status::kOk, mem.ReadBytes(World::kNormal, 0x2000, out, 21));
  EXPECT_STREQ(msg, out);
  uint32_t cs = *mem.Read32(World::kNormal, kDmaEngineBase + kDmaCs);
  EXPECT_TRUE(cs & kDmaCsEnd);
  EXPECT_TRUE(cs & kDmaCsInt);
  EXPECT_TRUE(machine_.irq().Pending(kDmaIrqBase));
  // Clearing INT lowers the line.
  ASSERT_EQ(Status::kOk,
            mem.Write32(World::kNormal, kDmaEngineBase + kDmaCs, kDmaCsEnd | kDmaCsInt));
  EXPECT_FALSE(machine_.irq().Pending(kDmaIrqBase));
}

TEST_F(MachineDmaTest, ChainedControlBlocksAllExecute) {
  auto& mem = machine_.mem();
  for (int i = 0; i < 3; ++i) {
    uint32_t v = 0x10 + static_cast<uint32_t>(i);
    ASSERT_EQ(Status::kOk,
              mem.Write32(World::kNormal, 0x1000 + static_cast<uint64_t>(i) * 0x100, v));
    DmaControlBlock cb{};
    cb.ti = kDmaTiSrcInc | kDmaTiDestInc | ((i == 2) ? kDmaTiIntEn : 0);
    cb.source_ad = 0x1000 + static_cast<uint32_t>(i) * 0x100;
    cb.dest_ad = 0x2000 + static_cast<uint32_t>(i) * 4;
    cb.txfr_len = 4;
    cb.nextconbk = (i == 2) ? 0 : 0x3000 + (static_cast<uint32_t>(i) + 1) * 32;
    ASSERT_EQ(Status::kOk, mem.WriteBytes(World::kNormal, 0x3000 + static_cast<uint64_t>(i) * 32,
                                          &cb, sizeof(cb)));
  }
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kDmaEngineBase + kDmaConblkAd, 0x3000));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kDmaEngineBase + kDmaCs, kDmaCsActive));
  machine_.clock().Advance(1000);
  EXPECT_EQ(0x10u, *mem.Read32(World::kNormal, 0x2000));
  EXPECT_EQ(0x11u, *mem.Read32(World::kNormal, 0x2004));
  EXPECT_EQ(0x12u, *mem.Read32(World::kNormal, 0x2008));
}

TEST_F(MachineDmaTest, BadControlBlockSetsError) {
  auto& mem = machine_.mem();
  DmaControlBlock cb{};
  cb.ti = kDmaTiSrcDreq | kDmaTiDestInc | kDmaTiIntEn;  // DREQ with no registered port
  cb.source_ad = 0xdead0000;
  cb.dest_ad = 0x2000;
  cb.txfr_len = 16;
  ASSERT_EQ(Status::kOk, mem.WriteBytes(World::kNormal, 0x3000, &cb, sizeof(cb)));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kDmaEngineBase + kDmaConblkAd, 0x3000));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kDmaEngineBase + kDmaCs, kDmaCsActive));
  machine_.clock().Advance(1000);
  uint32_t cs = *mem.Read32(World::kNormal, kDmaEngineBase + kDmaCs);
  EXPECT_TRUE(cs & kDmaCsError);
}

// A RAM-sourced block whose guest-written length is wild and whose source is
// outside RAM fails with the error bit and its interrupt. The engine checks the
// range before it sizes its bounce buffer by that length, so the block
// allocates nothing, and it moved nothing, so dma.bytes does not count it.
TEST_F(MachineDmaTest, WildLengthFromOutsideRamSetsError) {
  Telemetry& tel = Telemetry::Get();
  tel.Enable();
  tel.Reset();
  const uint64_t moved = tel.metrics().counter("dma.bytes").value();
  auto& mem = machine_.mem();
  DmaControlBlock cb{};
  cb.ti = kDmaTiSrcInc | kDmaTiDestInc | kDmaTiIntEn;
  cb.source_ad = 0xc000'0000;  // past the end of RAM
  cb.dest_ad = 0x2000;
  cb.txfr_len = 0xffff'fff0;
  ASSERT_EQ(Status::kOk, mem.WriteBytes(World::kNormal, 0x3000, &cb, sizeof(cb)));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kDmaEngineBase + kDmaConblkAd, 0x3000));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kDmaEngineBase + kDmaCs, kDmaCsActive));
  machine_.clock().Advance(1000);
  uint32_t cs = *mem.Read32(World::kNormal, kDmaEngineBase + kDmaCs);
  EXPECT_TRUE(cs & kDmaCsEnd);
  EXPECT_TRUE(cs & kDmaCsError);
  EXPECT_TRUE(cs & kDmaCsInt);
  EXPECT_TRUE(machine_.irq().Pending(kDmaIrqBase));
  const uint64_t transfers = tel.metrics().counter("dma.transfers").value();
  EXPECT_EQ(moved, tel.metrics().counter("dma.bytes").value()) << "a failed block counted bytes";
  tel.Disable();
  tel.Reset();
  EXPECT_EQ(1u, transfers);
}

TEST(MachineTest, DeviceRegistryLookups) {
  Machine machine;
  ScratchDevice dev;
  Result<uint16_t> id = machine.AttachDevice(0x3f30'0000, 0x100, &dev);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(machine.DeviceById(*id).ok());
  EXPECT_TRUE(machine.DeviceByName("scratch").ok());
  EXPECT_FALSE(machine.DeviceByName("missing").ok());
  EXPECT_FALSE(machine.DeviceById(200).ok());
}

}  // namespace
}  // namespace dlt
