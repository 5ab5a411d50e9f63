// Tier-1 tests for runtime integrity measurement (src/core/integrity.h) and
// session attestation (src/tee/attestation.h): golden measurements on fresh
// deployments for every driverlet class, measurement stability, fault-plane
// failures measuring a strict prefix of golden (and quarantining by the
// status threshold alone), and the signed quote's round-trip + tamper
// rejection.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/integrity.h"
#include "src/core/replayer.h"
#include "src/dev/vc4/vc4_firmware.h"
#include "src/drv/bcm_sdhost_driver.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/record/quote.h"
#include "src/soc/status.h"
#include "src/workload/deploy_util.h"
#include "src/workload/record_campaigns.h"

namespace dlt {
namespace {

const std::vector<uint8_t>& MmcPkg() {
  static const std::vector<uint8_t>* pkg = new std::vector<uint8_t>(BuildMmcPackage());
  return *pkg;
}
const std::vector<uint8_t>& UsbPkg() {
  static const std::vector<uint8_t>* pkg = new std::vector<uint8_t>(BuildUsbPackage());
  return *pkg;
}
const std::vector<uint8_t>& CameraPkg() {
  static const std::vector<uint8_t>* pkg = new std::vector<uint8_t>(BuildCameraPackage());
  return *pkg;
}

// One covered invoke's arguments for the deployment's entry; buffers live in
// |buf|/|aux| and must outlive the call.
ReplayArgs CoveredArgs(const std::string& entry, std::vector<uint8_t>* buf,
                       std::vector<uint8_t>* aux) {
  ReplayArgs args;
  if (entry == kCameraEntry) {
    buf->assign(Vc4Firmware::FrameBytes(1440) + 4096, 0);
    aux->assign(4, 0);
    args.scalars = {{"frame", 1}, {"resolution", 720}, {"buf_size", buf->size()}};
    args.buffers["buf"] = BufferView{buf->data(), buf->size()};
    args.buffers["img_size"] = BufferView{aux->data(), aux->size()};
  } else {
    *buf = PatternBuf(8 * 512, 5);
    args.scalars = {{"rw", kMmcRwWrite}, {"blkcnt", 8}, {"blkid", 2048}, {"flag", 0}};
    args.ro_buffers["buf"] = ConstBufferView{buf->data(), buf->size()};
  }
  return args;
}

const InteractionTemplate* FindTemplate(const Deployment& d, const std::string& name) {
  for (const InteractionTemplate* t : d.service->store().templates(d.driverlet)) {
    if (t->name == name) {
      return t;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Golden measurement on fresh deployments, for every driverlet class
// ---------------------------------------------------------------------------

TEST(IntegrityTest, MeasurementMatchesGoldenOnFreshDeploymentsForEveryClass) {
  struct Case {
    const char* label;
    const std::vector<uint8_t>& pkg;
  };
  const Case kCases[] = {{"mmc", MmcPkg()}, {"usb", UsbPkg()}, {"camera", CameraPkg()}};
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.label);
    std::string measurement[2];
    for (int run = 0; run < 2; ++run) {
      Deployment d = MakeDeployment(c.pkg);
      ASSERT_NE(d.session, 0u);
      const std::string entry =
          d.service->store().templates(d.driverlet).front()->entry;
      std::vector<uint8_t> buf, aux;
      ReplayArgs args = CoveredArgs(entry, &buf, &aux);
      Result<ReplayStats> r = d.service->Invoke(d.session, entry, args);
      ASSERT_TRUE(r.ok()) << StatusName(r.status());
      ASSERT_FALSE(r->measurement.empty());
      EXPECT_GT(r->events_measured, 0u);
      measurement[run] = r->measurement;

      // A clean run's chain is computable statically from the template alone.
      const InteractionTemplate* tpl = FindTemplate(d, r->template_name);
      ASSERT_NE(tpl, nullptr);
      EXPECT_EQ(r->measurement, GoldenMeasurementHex(*tpl));

      // The replayer's record and the session stats agree with the result.
      const MeasurementRecord& m = d.replayer->last_measurement();
      EXPECT_TRUE(m.valid);
      EXPECT_EQ(m.events_measured, tpl->events.size());
      EXPECT_EQ(m.Hex(), r->measurement);
      Result<SessionStats> st = d.service->Stats(d.session);
      ASSERT_TRUE(st.ok());
      EXPECT_EQ(st->last_measurement, r->measurement);
      EXPECT_EQ(st->measurement_mismatches, 0u);
    }
    // Byte-identical chains across fresh deployments.
    EXPECT_EQ(measurement[0], measurement[1]);
  }
}

TEST(IntegrityTest, MeasurementIsStableAcrossRepeatedInvokes) {
  Deployment d = MakeDeployment(MmcPkg());
  ASSERT_NE(d.session, 0u);
  const std::string entry = d.service->store().templates(d.driverlet).front()->entry;
  std::vector<uint8_t> buf, aux;
  ReplayArgs args = CoveredArgs(entry, &buf, &aux);
  Result<ReplayStats> a = d.service->Invoke(d.session, entry, args);
  Result<ReplayStats> b = d.service->Invoke(d.session, entry, args);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->measurement, b->measurement);
  EXPECT_EQ(a->events_measured, b->events_measured);
}

// Identical session histories on fresh deployments produce byte-identical
// quotes: the PCR chain, counters and MAC are all deterministic.
TEST(IntegrityTest, IdenticalHistoriesProduceIdenticalQuotes) {
  std::string serialized[2];
  for (int run = 0; run < 2; ++run) {
    Deployment d = MakeDeployment(MmcPkg());
    ASSERT_NE(d.session, 0u);
    const std::string entry = d.service->store().templates(d.driverlet).front()->entry;
    std::vector<uint8_t> buf, aux;
    ReplayArgs args = CoveredArgs(entry, &buf, &aux);
    ASSERT_TRUE(d.service->Invoke(d.session, entry, args).ok());
    ASSERT_TRUE(d.service->Invoke(d.session, entry, args).ok());
    Result<AttestationQuote> q = d.service->Attest(d.session, "stable-nonce");
    ASSERT_TRUE(q.ok());
    serialized[run] = SerializeQuote(*q);
  }
  EXPECT_EQ(serialized[0], serialized[1]);
}

// ---------------------------------------------------------------------------
// Fault-plane failures: a strict prefix of golden, quarantined by status
// ---------------------------------------------------------------------------

// Corrupts every MMIO read from the MMC controller so the single allowed
// attempt diverges deterministically.
FaultPlan CertainMmioCorruption(uint16_t device) {
  FaultPlan plan(7);
  FaultSpec spec;
  spec.kind = FaultKind::kMmioCorruptRead;
  spec.device = device;
  spec.arg = 0xff;
  plan.Add(spec);
  return plan;
}

// Drops every interrupt edge, so the first IRQ wait times out.
FaultPlan CertainIrqDrop() {
  FaultPlan plan(11);
  FaultSpec spec;
  spec.kind = FaultKind::kIrqDrop;
  plan.Add(spec);
  return plan;
}

// The premise behind the quarantine rule reading statuses only: a
// device-health failure reached the executor, so it carries a valid
// measurement, the golden prefix of the events its attempt completed, and
// counts as a mismatch. The mismatch alone never fences the session
// (threshold 0 turns quarantine off).
TEST(IntegrityTest, DeviceHealthFailuresMeasureAStrictPrefixOfGolden) {
  struct Case {
    const char* label;
    bool irq;
  };
  for (const Case& c : {Case{"mmio_corrupt", false}, Case{"irq_drop", true}}) {
    SCOPED_TRACE(c.label);
    ReplayServiceConfig cfg;
    cfg.quarantine_threshold = 0;
    Deployment d = MakeDeployment(MmcPkg(), cfg);
    ASSERT_NE(d.session, 0u);
    d.replayer->set_max_attempts(1);
    const std::string entry = d.service->store().templates(d.driverlet).front()->entry;
    std::vector<uint8_t> buf, aux;
    ReplayArgs args = CoveredArgs(entry, &buf, &aux);

    FaultInjector injector(&d.tb->machine());
    ASSERT_EQ(injector.Arm(c.irq ? CertainIrqDrop() : CertainMmioCorruption(d.tb->mmc_id())),
              Status::kOk);
    Result<ReplayStats> r = d.service->Invoke(d.session, entry, args);
    injector.Disarm();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status(), Status::kAborted) << StatusName(r.status());

    const MeasurementRecord& m = d.replayer->last_measurement();
    ASSERT_TRUE(m.valid);
    Result<const InteractionTemplate*> sel =
        d.service->store().Select(d.driverlet, entry, args.scalars);
    ASSERT_TRUE(sel.ok());
    const InteractionTemplate* tpl = *sel;
    EXPECT_LT(m.events_measured, tpl->events.size());
    EXPECT_EQ(m.digest, Measure(*tpl, m.events_measured));
    EXPECT_NE(m.Hex(), GoldenMeasurementHex(*tpl));
    Result<SessionStats> st = d.service->Stats(d.session);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->measurement_mismatches, 1u);
    EXPECT_EQ(st->last_measurement, m.Hex());
    EXPECT_FALSE(st->quarantined);
    // The next invoke may need the recovery ladder, but it is not rejected
    // out of hand.
    EXPECT_NE(d.service->Invoke(d.session, entry, args).status(), Status::kQuarantined);
  }
}

TEST(IntegrityTest, FaultedRunDivergesFromGoldenAndQuarantinesAtThresholdOne) {
  ReplayServiceConfig cfg;
  cfg.quarantine_threshold = 1;  // fence on the first device-health failure
  Deployment d = MakeDeployment(MmcPkg(), cfg);
  ASSERT_NE(d.session, 0u);
  d.replayer->set_max_attempts(1);
  const std::string entry = d.service->store().templates(d.driverlet).front()->entry;
  std::vector<uint8_t> buf, aux;
  ReplayArgs args = CoveredArgs(entry, &buf, &aux);

  FaultInjector injector(&d.tb->machine());
  ASSERT_EQ(injector.Arm(CertainMmioCorruption(d.tb->mmc_id())), Status::kOk);
  Result<ReplayStats> r = d.service->Invoke(d.session, entry, args);
  injector.Disarm();
  ASSERT_FALSE(r.ok());

  // The failed attempt measured short of golden, and the first failure
  // fenced the session.
  EXPECT_TRUE(d.replayer->last_measurement().valid);
  Result<SessionStats> st = d.service->Stats(d.session);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->measurement_mismatches, 1u);
  EXPECT_TRUE(st->quarantined);
  EXPECT_EQ(d.service->quarantined_sessions(), 1u);

  // Quarantine is terminal for the session: further invokes fail fast.
  EXPECT_EQ(d.service->Invoke(d.session, entry, args).status(), Status::kQuarantined);

  // The quote carries the divergence.
  Result<AttestationQuote> q = d.service->Attest(d.session, "post-fault");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->measurement_mismatches, 1u);
  EXPECT_TRUE(q->quarantined);
  EXPECT_TRUE(VerifyQuote(*q, kDeveloperKey));
}

// ---------------------------------------------------------------------------
// Attestation quotes
// ---------------------------------------------------------------------------

TEST(AttestTest, QuoteRoundTripsAndRejectsTampering) {
  Deployment d = MakeDeployment(MmcPkg());
  ASSERT_NE(d.session, 0u);
  const std::string entry = d.service->store().templates(d.driverlet).front()->entry;
  std::vector<uint8_t> buf, aux;
  ReplayArgs args = CoveredArgs(entry, &buf, &aux);
  ASSERT_TRUE(d.service->Invoke(d.session, entry, args).ok());

  Result<AttestationQuote> q = d.service->Attest(d.session, "fresh-nonce");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->driverlet, d.driverlet);
  EXPECT_EQ(q->invokes, 1u);
  EXPECT_EQ(q->nonce, "fresh-nonce");
  EXPECT_FALSE(q->session_measurement.empty());
  EXPECT_TRUE(VerifyQuote(*q, kDeveloperKey));

  // Text round-trip is exact and still verifies.
  Result<AttestationQuote> rt = ParseQuote(SerializeQuote(*q));
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(SerializeQuote(*rt), SerializeQuote(*q));
  EXPECT_TRUE(VerifyQuote(*rt, kDeveloperKey));

  // Any tampered field invalidates the MAC.
  AttestationQuote t = *q;
  t.invokes = 2;
  EXPECT_FALSE(VerifyQuote(t, kDeveloperKey));
  t = *q;
  t.session_measurement[0] = t.session_measurement[0] == '0' ? '1' : '0';
  EXPECT_FALSE(VerifyQuote(t, kDeveloperKey));
  t = *q;
  t.nonce = "replayed-nonce";
  EXPECT_FALSE(VerifyQuote(t, kDeveloperKey));
  // And the wrong key never verifies.
  EXPECT_FALSE(VerifyQuote(*q, "not-the-developer-key"));

  EXPECT_EQ(d.service->Attest(9999, "n").status(), Status::kNotFound);
}

// Quote counters share the checked text parser: a counter past 2^64 - 1 is
// corrupt instead of wrapping.
TEST(AttestTest, CounterThatOverflowsIsCorrupt) {
  Deployment d = MakeDeployment(MmcPkg());
  ASSERT_NE(d.session, 0u);
  Result<AttestationQuote> q = d.service->Attest(d.session, "n");
  ASSERT_TRUE(q.ok());
  std::string text = SerializeQuote(*q);
  const std::string line = "invokes 0\n";
  size_t at = text.find(line);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, line.size(), "invokes 123456789012345678901\n");
  EXPECT_EQ(ParseQuote(text).status(), Status::kCorrupt);
}

TEST(AttestTest, SessionPcrExtendsWithEveryInvoke) {
  Deployment d = MakeDeployment(MmcPkg());
  ASSERT_NE(d.session, 0u);
  const std::string entry = d.service->store().templates(d.driverlet).front()->entry;
  std::vector<uint8_t> buf, aux;
  ReplayArgs args = CoveredArgs(entry, &buf, &aux);

  Result<AttestationQuote> q0 = d.service->Attest(d.session, "n");
  ASSERT_TRUE(q0.ok());
  ASSERT_TRUE(d.service->Invoke(d.session, entry, args).ok());
  Result<AttestationQuote> q1 = d.service->Attest(d.session, "n");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(d.service->Invoke(d.session, entry, args).ok());
  Result<AttestationQuote> q2 = d.service->Attest(d.session, "n");
  ASSERT_TRUE(q2.ok());

  // Same invoke, different chain positions: the PCR commits to history, not
  // just to the set of templates run.
  EXPECT_NE(q0->session_measurement, q1->session_measurement);
  EXPECT_NE(q1->session_measurement, q2->session_measurement);
  EXPECT_EQ(q2->invokes, 2u);
}

}  // namespace
}  // namespace dlt
