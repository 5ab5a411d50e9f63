// End-to-end crypto-accelerator driverlet tests (fifth class): the
// descriptor-ring DMA engine — record on the developer machine, replay in the
// TEE. Exercises the opposite template shape from the fTPM pipe: bulk
// descriptor writes into DMA memory, per-chunk-count transition paths, an op
// code that stays symbolic in the control word (encrypt and decrypt share one
// template), and an IRQ-gated consumer-index poll.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/core/integrity.h"
#include "src/core/replayer.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/workload/deploy_util.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"

namespace dlt {
namespace {

class CryptoaccDriverletTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dev_machine_ = new Rpi3Testbed(TestbedOptions{});
    Result<RecordCampaign> campaign = RecordCryptoaccCampaign(dev_machine_);
    ASSERT_TRUE(campaign.ok()) << StatusName(campaign.status());
    sealed_ = new std::vector<uint8_t>(campaign->Seal(kDeveloperKey));
  }
  static void TearDownTestSuite() {
    delete dev_machine_;
    delete sealed_;
  }

  void SetUp() override { Redeploy(); }

  void Redeploy() {
    TestbedOptions opts;
    opts.secure_io = true;
    opts.probe_drivers = false;
    deploy_ = std::make_unique<Rpi3Testbed>(opts);
    replayer_ = std::make_unique<Replayer>(&deploy_->tee(), kDeveloperKey);
    ASSERT_EQ(Status::kOk, replayer_->LoadPackage(sealed_->data(), sealed_->size()));
  }

  Result<ReplayStats> Transform(uint64_t op, uint64_t key, uint64_t len,
                                const std::vector<uint8_t>& buf, std::vector<uint8_t>* out) {
    ReplayArgs args;
    args.scalars = {{"op", op}, {"key", key}, {"len", len}};
    args.ro_buffers["buf"] = ConstBufferView{buf.data(), buf.size()};
    args.buffers["out"] = BufferView{out->data(), out->size()};
    return replayer_->Invoke(kCryptoaccEntry, args);
  }

  const InteractionTemplate* FindTemplate(const std::string& name) {
    for (const InteractionTemplate* t : replayer_->templates()) {
      if (t->name == name) {
        return t;
      }
    }
    return nullptr;
  }

  static Rpi3Testbed* dev_machine_;
  static std::vector<uint8_t>* sealed_;
  std::unique_ptr<Rpi3Testbed> deploy_;
  std::unique_ptr<Replayer> replayer_;
};

Rpi3Testbed* CryptoaccDriverletTest::dev_machine_ = nullptr;
std::vector<uint8_t>* CryptoaccDriverletTest::sealed_ = nullptr;

TEST_F(CryptoaccDriverletTest, CampaignDistillsFiveTemplates) {
  // Six record runs, five templates: Dec1 merges into Enc1 — the op is a
  // symbolic operand in the descriptor control word, not a branch.
  EXPECT_EQ(5u, replayer_->templates().size());
  EXPECT_NE(nullptr, FindTemplate("Enc1"));
  EXPECT_EQ(nullptr, FindTemplate("Dec1"));
  EXPECT_NE(nullptr, FindTemplate("Enc2"));
  EXPECT_NE(nullptr, FindTemplate("Enc3"));
  EXPECT_NE(nullptr, FindTemplate("Enc4"));
  EXPECT_NE(nullptr, FindTemplate("Digest"));
}

TEST_F(CryptoaccDriverletTest, EncryptDecryptRoundTripsThroughMergedTemplate) {
  const uint64_t kKey = 0x1234abcd;
  std::vector<uint8_t> pt = PatternBuf(4096, 9);
  std::vector<uint8_t> ct(pt.size(), 0), rt(pt.size(), 0);

  Result<ReplayStats> enc = Transform(kCaOpEncrypt, kKey, pt.size(), pt, &ct);
  ASSERT_TRUE(enc.ok()) << StatusName(enc.status());
  EXPECT_EQ("Enc1", enc->template_name);
  EXPECT_NE(pt, ct);

  // Decrypt was recorded only once (Dec1) and merged away: it replays through
  // the encrypt-recorded template because the op never pinned the path.
  Result<ReplayStats> dec = Transform(kCaOpDecrypt, kKey, ct.size(), ct, &rt);
  ASSERT_TRUE(dec.ok()) << StatusName(dec.status());
  EXPECT_EQ("Enc1", dec->template_name);
  EXPECT_EQ(pt, rt);
}

TEST_F(CryptoaccDriverletTest, CipherMatchesKeystreamOracle) {
  const uint64_t kKey = 0xfeedbee5;
  std::vector<uint8_t> pt = PatternBuf(256, 3);
  std::vector<uint8_t> ct(pt.size(), 0);
  ASSERT_TRUE(Transform(kCaOpEncrypt, kKey, pt.size(), pt, &ct).ok());
  for (size_t i = 0; i < pt.size(); ++i) {
    ASSERT_EQ(static_cast<uint8_t>(pt[i] ^ CryptoaccDevice::KeystreamByte(kKey, i)), ct[i])
        << "ciphertext mismatch at byte " << i;
  }
}

TEST_F(CryptoaccDriverletTest, MultiChunkKeystreamIsChunkLocal) {
  // The engine restarts the keystream per descriptor, so a 2-chunk job's
  // expected ciphertext indexes the keystream modulo the chunk size. This
  // pins the DMA chunking the driver recorded.
  const uint64_t kKey = 0x0badcafe;
  std::vector<uint8_t> pt = PatternBuf(8192, 11);
  std::vector<uint8_t> ct(pt.size(), 0);
  Result<ReplayStats> r = Transform(kCaOpEncrypt, kKey, pt.size(), pt, &ct);
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  EXPECT_EQ("Enc2", r->template_name);
  for (size_t i = 0; i < pt.size(); ++i) {
    uint8_t ks = CryptoaccDevice::KeystreamByte(kKey, i % kCryptoChunkBytes);
    ASSERT_EQ(static_cast<uint8_t>(pt[i] ^ ks), ct[i]) << "ciphertext mismatch at byte " << i;
  }
}

TEST_F(CryptoaccDriverletTest, ChunkCountSelectsTemplateAndPartialTailGeneralizes) {
  // Unrecorded lengths select by chunk-count range (the loop's branch on the
  // remaining length became interval constraints) and the partial last chunk's
  // length is symbolic: 6000 → 2 chunks, 16000 → 4 chunks.
  struct Case {
    uint64_t len;
    const char* tpl;
  };
  const Case kCases[] = {{6000, "Enc2"}, {16000, "Enc4"}};
  for (const Case& c : kCases) {
    std::vector<uint8_t> pt = PatternBuf(c.len, c.len);
    std::vector<uint8_t> ct(pt.size(), 0), rt(pt.size(), 0);
    Result<ReplayStats> enc = Transform(kCaOpEncrypt, 0x5eed0001, c.len, pt, &ct);
    ASSERT_TRUE(enc.ok()) << c.len << ": " << StatusName(enc.status());
    EXPECT_EQ(c.tpl, enc->template_name) << c.len;
    ASSERT_TRUE(Transform(kCaOpDecrypt, 0x5eed0001, c.len, ct, &rt).ok()) << c.len;
    EXPECT_EQ(pt, rt) << c.len;
  }
}

TEST_F(CryptoaccDriverletTest, DigestMatchesOracleAtUnrecordedLength) {
  const uint64_t kKey = 0xd16e5702;
  std::vector<uint8_t> data = PatternBuf(1024, 5);  // recorded at 4096
  std::vector<uint8_t> out(kCaDigestBytes, 0);
  Result<ReplayStats> r = Transform(kCaOpDigest, kKey, data.size(), data, &out);
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  EXPECT_EQ("Digest", r->template_name);

  uint8_t want[kCaDigestBytes];
  CryptoaccDevice::DigestBytes(static_cast<uint32_t>(kKey), data.data(), data.size(), want);
  EXPECT_EQ(0, std::memcmp(out.data(), want, kCaDigestBytes));

  // Digest is data-sensitive: flip one byte, digest changes.
  std::vector<uint8_t> data2 = data;
  data2[100] ^= 0x1;
  std::vector<uint8_t> out2(kCaDigestBytes, 0);
  ASSERT_TRUE(Transform(kCaOpDigest, kKey, data2.size(), data2, &out2).ok());
  EXPECT_NE(out, out2);
}

TEST_F(CryptoaccDriverletTest, ConstraintsRejectUncoveredInputs) {
  std::vector<uint8_t> buf(kCryptoMaxJobBytes * 2, 0);
  std::vector<uint8_t> out(kCryptoMaxJobBytes * 2, 0);
  // Zero, unaligned and over-cap lengths violate the distilled constraints.
  EXPECT_EQ(Status::kNoTemplate, Transform(kCaOpEncrypt, 1, 0, buf, &out).status());
  EXPECT_EQ(Status::kNoTemplate, Transform(kCaOpEncrypt, 1, 24, buf, &out).status());
  EXPECT_EQ(Status::kNoTemplate,
            Transform(kCaOpEncrypt, 1, kCryptoMaxJobBytes + 16, buf, &out).status());
  // Unknown op: neither the cipher path nor the digest path admits it.
  EXPECT_EQ(Status::kNoTemplate, Transform(3, 1, 256, buf, &out).status());
}

// Two fresh deployments replay the same job byte for byte, and each clean
// run's measurement is the template's golden chain.
TEST_F(CryptoaccDriverletTest, FreshDeploymentsAgreeByteForByteAndMatchGolden) {
  std::vector<uint8_t> pt = PatternBuf(8192, 21);
  std::vector<uint8_t> out[2];
  std::string measurement[2];
  for (int i = 0; i < 2; ++i) {
    Redeploy();
    std::vector<uint8_t> ct(pt.size(), 0);
    Result<ReplayStats> r = Transform(kCaOpEncrypt, 0x77aa77aa, pt.size(), pt, &ct);
    ASSERT_TRUE(r.ok()) << StatusName(r.status());
    out[i] = ct;
    measurement[i] = r->measurement;

    const InteractionTemplate* tpl = FindTemplate(r->template_name);
    ASSERT_NE(nullptr, tpl);
    EXPECT_EQ(GoldenMeasurementHex(*tpl), r->measurement);
    EXPECT_TRUE(replayer_->last_measurement().valid);
    EXPECT_EQ(GoldenMeasurementHex(*tpl), replayer_->last_measurement().Hex());
  }
  EXPECT_EQ(out[0], out[1]);
  EXPECT_EQ(measurement[0], measurement[1]);
}

TEST_F(CryptoaccDriverletTest, BoundedStatusGlitchRecoversViaRetryLadder) {
  FaultInjector inj(&deploy_->machine());
  FaultPlan plan(42);
  plan.Add(FaultSpec{.kind = FaultKind::kMmioCorruptRead,
                     .device = deploy_->crypto_id(),
                     .reg_off = kCaStatus,
                     .max_faults = 1,
                     .arg = kCaStatusBusy});
  ASSERT_EQ(Status::kOk, inj.Arm(plan));

  std::vector<uint8_t> pt = PatternBuf(256, 7);
  std::vector<uint8_t> ct(pt.size(), 0);
  Result<ReplayStats> r = Transform(kCaOpEncrypt, 0xabcd, pt.size(), pt, &ct);
  inj.Disarm();
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  EXPECT_EQ(2, r->attempts);
  EXPECT_EQ(1u, inj.injected_total());
  // The recovered run still produced the right ciphertext.
  for (size_t i = 0; i < pt.size(); ++i) {
    ASSERT_EQ(static_cast<uint8_t>(pt[i] ^ CryptoaccDevice::KeystreamByte(0xabcd, i)), ct[i]);
  }
}

TEST_F(CryptoaccDriverletTest, DroppedCompletionIrqRecoversViaRetry) {
  // The completion interrupt is lost once: the recorded WaitForIrq diverges on
  // timeout, the ladder soft-resets the engine and the retry completes.
  FaultInjector inj(&deploy_->machine());
  FaultPlan plan(42);
  plan.Add(FaultSpec{.kind = FaultKind::kIrqDrop,
                     .irq_line = kCryptoIrq,
                     .max_faults = 1});
  ASSERT_EQ(Status::kOk, inj.Arm(plan));

  std::vector<uint8_t> pt = PatternBuf(4096, 13);
  std::vector<uint8_t> ct(pt.size(), 0), rt(pt.size(), 0);
  Result<ReplayStats> r = Transform(kCaOpEncrypt, 0x600d, pt.size(), pt, &ct);
  inj.Disarm();
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  EXPECT_EQ(2, r->attempts);
  ASSERT_TRUE(Transform(kCaOpDecrypt, 0x600d, ct.size(), ct, &rt).ok());
  EXPECT_EQ(pt, rt);
}

TEST_F(CryptoaccDriverletTest, NormalWorldCannotTouchCrypto) {
  Result<uint32_t> r = deploy_->machine().mem().Read32(World::kNormal, kCryptoBase + kCaStatus);
  EXPECT_EQ(Status::kPermissionDenied, r.status());
}

}  // namespace
}  // namespace dlt
