// Observability subsystem tests: trace-ring wrap-around, counter/histogram
// accuracy, Chrome trace JSON well-formedness, and end-to-end assertions that
// a real MMC replay emits the documented event sequence (selection -> replay
// events -> completion) and that a forced divergence records soft resets.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/core/replayer.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/telemetry.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

// ---- minimal JSON syntax checker (no external deps) ----

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == '"') {
        ++pos_;
        return true;
      }
      ++pos_;
    }
    return false;
  }
  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) {
      return false;
    }
    pos_ += lit.size();
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

// ---- unit tests ----

TEST(TraceRingTest, WrapAroundKeepsNewestEvents) {
  TraceRing ring(8);
  ASSERT_EQ(8u, ring.capacity());
  for (uint64_t i = 0; i < 20; ++i) {
    TraceEvent e;
    e.ts_us = i;
    e.kind = TraceKind::kIrqRaise;
    ring.Push(e);
  }
  EXPECT_EQ(20u, ring.pushed());
  EXPECT_EQ(12u, ring.dropped());
  EXPECT_EQ(8u, ring.size());
  std::vector<TraceEvent> snap = ring.Snapshot();
  ASSERT_EQ(8u, snap.size());
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(12 + i, snap[i].ts_us) << "oldest-first order after wrap";
  }
  ring.Clear();
  EXPECT_EQ(0u, ring.size());
  EXPECT_TRUE(ring.Snapshot().empty());
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  TraceRing ring(100);
  EXPECT_EQ(128u, ring.capacity());
}

// Checks, in a process that has not traced yet, that the trace ring is
// allocated by Enable() and that events pushed afterwards come back intact.
// Returns the first broken expectation, or an empty string.
std::string CheckRingAllocatedOnEnable() {
  Telemetry& tel = Telemetry::Get();
  if (tel.enabled() || tel.ring().capacity() > 2) {
    return "before Enable(): " + std::to_string(tel.ring().capacity()) + " slots";
  }
  tel.Enable();
  if (tel.ring().capacity() != (1u << 16)) {
    return "after Enable(): " + std::to_string(tel.ring().capacity()) + " slots";
  }
  tel.Enable(1 << 18);
  if (tel.ring().capacity() != (1u << 18)) {
    return "after Enable(1 << 18): " + std::to_string(tel.ring().capacity()) + " slots";
  }
  tel.Instant(TraceKind::kIrqRaise, 10, "irq", 3);
  tel.Span(TraceKind::kDmaTransfer, 20, 5, "dma", 4096, 1, 7);
  std::vector<TraceEvent> snap = tel.ring().Snapshot();
  if (snap.size() != 2 || snap[0].kind != TraceKind::kIrqRaise || snap[0].ts_us != 10 ||
      snap[0].arg0 != 3 || std::string_view(snap[0].name) != "irq" ||
      snap[1].kind != TraceKind::kDmaTransfer || snap[1].ts_us != 20 || snap[1].dur_us != 5 ||
      snap[1].arg0 != 4096 || snap[1].arg1 != 1 || snap[1].device != 7 ||
      std::string_view(snap[1].name) != "dma") {
    return "Snapshot() lost or changed the pushed events";
  }
  return "";
}

TEST(ObsTest, DisabledTelemetryHoldsNoTraceRing) {
  if (std::getenv("DLT_TRACE") != nullptr) {
    GTEST_SKIP() << "DLT_TRACE arms tracing at first use";
  }
  // Other tests in this binary enable tracing, so the check runs in a child
  // that re-executes the binary for this statement alone.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        std::string err = CheckRingAllocatedOnEnable();
        std::fprintf(stderr, "%s\n", err.empty() ? "ring ok" : err.c_str());
        std::exit(err.empty() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "ring ok");
}

TEST(MetricsTest, CounterAccuracy) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test.counter");
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(42u, c.value());
  // Same name resolves to the same counter.
  EXPECT_EQ(&c, &reg.counter("test.counter"));
  reg.Reset();
  EXPECT_EQ(0u, c.value());  // cached pointer survives Reset
}

TEST(MetricsTest, GaugeLevelAndWatermark) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("test.queue_depth");
  g.Add(3);
  g.Add(2);
  g.Sub(4);
  EXPECT_EQ(1, g.value());
  EXPECT_EQ(5, g.max());  // watermark survives the drain
  g.Set(2);
  EXPECT_EQ(2, g.value());
  EXPECT_EQ(5, g.max());  // Set below the watermark does not lower it
  // Same name resolves to the same gauge; Reset zeroes value and watermark.
  EXPECT_EQ(&g, &reg.gauge("test.queue_depth"));
  reg.Reset();
  EXPECT_EQ(0, g.value());
  EXPECT_EQ(0, g.max());

  // Registration order is preserved for exporters.
  reg.gauge("test.sessions").Set(7);
  std::vector<std::string> names;
  reg.ForEachGauge([&](const std::string& n, const Gauge&) { names.push_back(n); });
  EXPECT_EQ((std::vector<std::string>{"test.queue_depth", "test.sessions"}), names);
  EXPECT_NE(std::string::npos, MetricsSummary(reg).find("test.sessions"));
}

TEST(MetricsTest, HistogramAccuracy) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test.hist");
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(100u, h.count());
  EXPECT_EQ(5050u, h.sum());
  EXPECT_EQ(1u, h.min());
  EXPECT_EQ(100u, h.max());
  EXPECT_DOUBLE_EQ(50.5, h.mean());
  // Nearest rank 50 (value 50) falls in bucket [32, 64): upper bound 63.
  EXPECT_EQ(63u, h.Percentile(50));
  // Nearest rank 99 (value 99) falls in bucket [64, 128), whose upper bound
  // 127 lies above every sample: clamped to the max.
  EXPECT_EQ(100u, h.Percentile(99));
  EXPECT_EQ(100u, h.Percentile(100));
  // Rank 1 sits in bucket [1, 2): the bound 1 is the min itself.
  EXPECT_EQ(1u, h.Percentile(1));
  h.Reset();
  EXPECT_EQ(0u, h.count());
  EXPECT_EQ(0u, h.min());
  EXPECT_EQ(0u, h.max());

  // One sample: every quantile is that sample, never its bucket's bound.
  h.Record(1132);
  EXPECT_EQ(1132u, h.Percentile(50));
  EXPECT_EQ(1132u, h.Percentile(99));
  // Nearest rank rounds up: p50 of {10, 1000} is rank 1 (the 10), p51 rank 2.
  h.Reset();
  h.Record(10);
  h.Record(1000);
  EXPECT_EQ(15u, h.Percentile(50));  // bucket [8, 16) bound, inside [10, 1000]
  EXPECT_EQ(1000u, h.Percentile(51));
}

TEST(MetricsTest, HistogramZeroBucket) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("zeros");
  h.Record(0);
  h.Record(0);
  EXPECT_EQ(2u, h.count());
  EXPECT_EQ(0u, h.Percentile(50));
}

TEST(ChromeTraceTest, ExportIsWellFormedJson) {
  std::vector<TraceEvent> events;
  TraceEvent sel;
  sel.kind = TraceKind::kTemplateSelected;
  sel.ts_us = 10;
  sel.set_name("WR_8");
  events.push_back(sel);
  TraceEvent span;
  span.kind = TraceKind::kReplayEvent;
  span.ts_us = 12;
  span.dur_us = 7;
  span.arg0 = 3;
  span.set_name("reg_write");
  events.push_back(span);
  TraceEvent nasty;  // name needing escaping
  nasty.kind = TraceKind::kSoftReset;
  nasty.ts_us = 20;
  nasty.set_name("quote\"back\\slash\n");
  events.push_back(nasty);

  MetricsRegistry reg;
  reg.counter("replay.template_hit").Inc();
  reg.histogram("replay.invoke_us").Record(123);

  std::string json = ChromeTraceJson(events, &reg);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(std::string::npos, json.find("\"traceEvents\""));
  EXPECT_NE(std::string::npos, json.find("\"WR_8\""));
  EXPECT_NE(std::string::npos, json.find("\"ph\":\"X\""));
  EXPECT_NE(std::string::npos, json.find("\"dur\":7"));
  EXPECT_NE(std::string::npos, json.find("\"replay.template_hit\":1"));
}

TEST(ChromeTraceTest, EmptyTraceIsStillValid) {
  std::string json = ChromeTraceJson({}, nullptr);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

// ---- end-to-end: telemetry during a real MMC replay ----

class ObsEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Record with telemetry disarmed so per-test traces start clean.
    Rpi3Testbed dev{TestbedOptions{}};
    Result<RecordCampaign> campaign = RecordMmcCampaign(&dev);
    ASSERT_TRUE(campaign.ok()) << StatusName(campaign.status());
    sealed_ = new std::vector<uint8_t>(campaign->Seal(kDeveloperKey));
  }
  static void TearDownTestSuite() {
    delete sealed_;
    sealed_ = nullptr;
  }

  void SetUp() override {
    TestbedOptions opts;
    opts.secure_io = true;
    opts.probe_drivers = false;
    deploy_ = std::make_unique<Rpi3Testbed>(opts);
    replayer_ = std::make_unique<Replayer>(&deploy_->tee(), kDeveloperKey);
    ASSERT_EQ(Status::kOk, replayer_->LoadPackage(sealed_->data(), sealed_->size()));
    Telemetry::Get().Enable();
    Telemetry::Get().Reset();
  }
  void TearDown() override {
    Telemetry::Get().Disable();
    Telemetry::Get().Reset();
  }

  Result<ReplayStats> Replay(uint64_t rw, uint64_t blkcnt, uint64_t blkid, uint8_t* buf) {
    ReplayArgs args;
    args.scalars = {{"rw", rw}, {"blkcnt", blkcnt}, {"blkid", blkid}, {"flag", 0}};
    args.buffers["buf"] = BufferView{buf, static_cast<size_t>(blkcnt) * 512};
    return replayer_->Invoke(kMmcEntry, args);
  }

  static std::vector<uint8_t>* sealed_;
  std::unique_ptr<Rpi3Testbed> deploy_;
  std::unique_ptr<Replayer> replayer_;
};

std::vector<uint8_t>* ObsEndToEndTest::sealed_ = nullptr;

TEST_F(ObsEndToEndTest, ReplayEmitsSelectionThenEventsThenCompletion) {
  std::vector<uint8_t> buf = PatternBuf(8 * 512, 0x42);
  Result<ReplayStats> r = Replay(kMmcRwWrite, 8, 4096, buf.data());
  ASSERT_TRUE(r.ok()) << StatusName(r.status());

  std::vector<TraceEvent> trace = Telemetry::Get().ring().Snapshot();
  ASSERT_FALSE(trace.empty());

  ptrdiff_t selected = -1;
  ptrdiff_t last_rejected = -1;
  ptrdiff_t first_replay_event = -1;
  ptrdiff_t invoke = -1;
  size_t rejected = 0;
  size_t replay_events = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace[i];
    if (e.kind == TraceKind::kTemplateRejected) {
      last_rejected = static_cast<ptrdiff_t>(i);
      ++rejected;
      EXPECT_STRNE("WR_8", e.name);
    }
    if (e.kind == TraceKind::kTemplateSelected && selected < 0) {
      selected = static_cast<ptrdiff_t>(i);
      EXPECT_STREQ("WR_8", e.name);
    }
    if (e.kind == TraceKind::kReplayEvent) {
      if (first_replay_event < 0) {
        first_replay_event = static_cast<ptrdiff_t>(i);
      }
      ++replay_events;
    }
    if (e.kind == TraceKind::kReplayInvoke) {
      invoke = static_cast<ptrdiff_t>(i);
      EXPECT_STREQ("WR_8", e.name);
      EXPECT_EQ(r->events_executed, e.arg0);
    }
  }
  // The documented sequence: the scan's rejections, selection, then
  // per-event slices, then the enclosing invoke span (emitted at completion).
  // The MMC slot holds 10 templates; the scan rejects the other 9.
  ASSERT_GE(selected, 0);
  ASSERT_GE(first_replay_event, 0);
  ASSERT_GE(invoke, 0);
  EXPECT_EQ(9u, rejected);
  EXPECT_LT(last_rejected, selected);
  EXPECT_LT(selected, first_replay_event);
  EXPECT_LT(first_replay_event, invoke);
  EXPECT_EQ(r->events_executed, replay_events);

  MetricsRegistry& m = Telemetry::Get().metrics();
  EXPECT_EQ(1u, m.counter("replay.template_hit").value());
  EXPECT_EQ(0u, m.counter("replay.template_miss").value());
  EXPECT_EQ(1u, m.counter("replay.soft_resets").value());
  EXPECT_EQ(replay_events, m.counter("replay.events").value());
  EXPECT_EQ(1u, m.histogram("replay.invoke_us").count());
  EXPECT_GT(m.counter("dma.bytes").value(), 0u) << "8-block write moves data by DMA";
}

TEST_F(ObsEndToEndTest, UncoveredInputCountsTemplateMiss) {
  std::vector<uint8_t> buf(512, 0);
  Result<ReplayStats> r = Replay(kMmcRwWrite, 0, 4096, buf.data());  // blkcnt 0: uncovered
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(Status::kNoTemplate, r.status());
  EXPECT_EQ(1u, Telemetry::Get().metrics().counter("replay.template_miss").value());
}

TEST_F(ObsEndToEndTest, ForcedDivergenceRecordsSoftResetAndDivergenceEvents) {
  deploy_->sd_medium().set_present(false);  // unplug: persistent divergence
  std::vector<uint8_t> buf(8 * 512, 0);
  Result<ReplayStats> r = Replay(kMmcRwRead, 8, 2048, buf.data());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(Status::kAborted, r.status());

  std::vector<TraceEvent> trace = Telemetry::Get().ring().Snapshot();
  size_t divergences = 0;
  size_t retry_resets = 0;
  for (const TraceEvent& e : trace) {
    if (e.kind == TraceKind::kDivergence) {
      ++divergences;
      EXPECT_STREQ("RD_8", e.name);
    }
    if (e.kind == TraceKind::kSoftReset && std::string_view(e.name) == "divergence_retry") {
      ++retry_resets;
    }
  }
  int attempts = replayer_->max_attempts();
  EXPECT_EQ(static_cast<size_t>(attempts), divergences);
  EXPECT_EQ(static_cast<size_t>(attempts - 1), retry_resets);

  MetricsRegistry& m = Telemetry::Get().metrics();
  EXPECT_EQ(static_cast<uint64_t>(attempts), m.counter("replay.divergences").value());
  EXPECT_EQ(static_cast<uint64_t>(attempts), m.counter("replay.constraint_failures.RD_8").value());
  EXPECT_EQ(1u, m.counter("replay.aborts").value());
  EXPECT_EQ(static_cast<uint64_t>(attempts), m.counter("replay.soft_resets").value());
}

TEST_F(ObsEndToEndTest, ExportedReplayTraceIsWellFormed) {
  std::vector<uint8_t> buf = PatternBuf(8 * 512, 0x77);
  ASSERT_TRUE(Replay(kMmcRwWrite, 8, 8192, buf.data()).ok());
  std::string json =
      ChromeTraceJson(Telemetry::Get().ring().Snapshot(), &Telemetry::Get().metrics());
  EXPECT_TRUE(JsonChecker(json).Valid());
  EXPECT_NE(std::string::npos, json.find("template_selected"));
  EXPECT_NE(std::string::npos, json.find("\"ph\":\"X\""));
}

TEST_F(ObsEndToEndTest, DisabledTelemetryEmitsNothing) {
  Telemetry::Get().Disable();
  Telemetry::Get().Reset();
  std::vector<uint8_t> buf = PatternBuf(8 * 512, 0x11);
  ASSERT_TRUE(Replay(kMmcRwWrite, 8, 4096, buf.data()).ok());
  EXPECT_EQ(0u, Telemetry::Get().ring().pushed());
  EXPECT_EQ(0u, Telemetry::Get().metrics().counter("replay.template_hit").value());
}

}  // namespace
}  // namespace dlt
