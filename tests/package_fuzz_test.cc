// Robustness sweeps over real driverlet packages: every truncation point and a
// byte-flip sweep must be rejected cleanly (never parsed, never crash) — the
// attack surface an adversarial OS has against the replayer's loader (§7.2.2).
// Also full-campaign round-trips for the binary wire format and the text
// developer format.
#include <gtest/gtest.h>

#include "src/core/package.h"
#include "src/core/serialize_binary.h"
#include "src/record/campaign.h"
#include "src/record/package_writer.h"
#include "src/record/serialize_text.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

class PackageFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rpi3Testbed dev{TestbedOptions{}};
    Result<RecordCampaign> c = RecordMmcCampaign(&dev);
    ASSERT_TRUE(c.ok());
    campaign_ = new RecordCampaign(std::move(*c));
    sealed_ = new std::vector<uint8_t>(campaign_->Seal(kDeveloperKey));
  }
  static void TearDownTestSuite() {
    delete campaign_;
    delete sealed_;
  }

  static RecordCampaign* campaign_;
  static std::vector<uint8_t>* sealed_;
};

RecordCampaign* PackageFuzzTest::campaign_ = nullptr;
std::vector<uint8_t>* PackageFuzzTest::sealed_ = nullptr;

TEST_F(PackageFuzzTest, EveryTruncationRejected) {
  const std::vector<uint8_t>& pkg = *sealed_;
  for (size_t cut = 0; cut < pkg.size(); cut += 97) {
    Result<DriverletPackage> r = OpenPackage(pkg.data(), cut, kDeveloperKey);
    EXPECT_FALSE(r.ok()) << "truncation at " << cut << " accepted";
  }
}

TEST_F(PackageFuzzTest, ByteFlipSweepRejected) {
  std::vector<uint8_t> pkg = *sealed_;
  for (size_t pos = 0; pos < pkg.size(); pos += 131) {
    pkg[pos] ^= 0x55;
    Result<DriverletPackage> r = OpenPackage(pkg.data(), pkg.size(), kDeveloperKey);
    EXPECT_FALSE(r.ok()) << "flip at " << pos << " accepted";
    pkg[pos] ^= 0x55;  // restore
  }
  // Sanity: the untouched package still opens.
  EXPECT_TRUE(OpenPackage(pkg.data(), pkg.size(), kDeveloperKey).ok());
}

TEST_F(PackageFuzzTest, RawSerializedFormsSurviveFlipsWithoutCrashing) {
  // Below the signature layer: the parsers themselves must be memory-safe on
  // corrupted input (they may accept or reject; they must not crash).
  std::vector<uint8_t> bin = TemplatesToBinary(campaign_->templates());
  for (size_t pos = 0; pos < bin.size(); pos += 211) {
    std::vector<uint8_t> bad = bin;
    bad[pos] ^= 0xff;
    (void)TemplatesFromBinary(bad.data(), bad.size());
  }
  std::string text = TemplatesToText(campaign_->templates());
  for (size_t pos = 0; pos < text.size(); pos += 509) {
    std::string bad = text;
    bad[pos] = '~';
    (void)TemplatesFromText(bad);
  }
  SUCCEED();
}

TEST_F(PackageFuzzTest, FullCampaignTextRoundTrip) {
  std::string text = TemplatesToText(campaign_->templates());
  Result<std::vector<InteractionTemplate>> parsed = TemplatesFromText(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(campaign_->templates().size(), parsed->size());
  for (size_t i = 0; i < parsed->size(); ++i) {
    EXPECT_TRUE(SameStateTransition(campaign_->templates()[i].events, (*parsed)[i].events)) << i;
    EXPECT_EQ(campaign_->templates()[i].initial.ToString(), (*parsed)[i].initial.ToString()) << i;
  }
  // Serialization is a fixpoint: emit(parse(emit(t))) == emit(t).
  EXPECT_EQ(text, TemplatesToText(*parsed));
}

TEST_F(PackageFuzzTest, FullCampaignBinaryRoundTrip) {
  std::vector<uint8_t> bin = TemplatesToBinary(campaign_->templates());
  Result<std::vector<InteractionTemplate>> parsed = TemplatesFromBinary(bin.data(), bin.size());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(campaign_->templates().size(), parsed->size());
  EXPECT_EQ(bin, TemplatesToBinary(*parsed));
}

TEST_F(PackageFuzzTest, CrossFormatAgreement) {
  // The text developer form and the sealed wire form decode to structurally
  // identical templates.
  Result<std::vector<InteractionTemplate>> from_text =
      TemplatesFromText(TemplatesToText(campaign_->templates()));
  Result<DriverletPackage> from_bin = OpenPackage(sealed_->data(), sealed_->size(),
                                                  kDeveloperKey);
  ASSERT_TRUE(from_text.ok());
  ASSERT_TRUE(from_bin.ok());
  ASSERT_EQ(from_text->size(), from_bin->templates.size());
  for (size_t i = 0; i < from_text->size(); ++i) {
    EXPECT_TRUE(Mergeable((*from_text)[i], from_bin->templates[i])) << i;
    // The clean-state proof survives both formats (every MMC template is
    // recorded clean, so a dropped flag shows up as false here).
    EXPECT_TRUE((*from_text)[i].leaves_clean_state) << i;
    EXPECT_TRUE(from_bin->templates[i].leaves_clean_state) << i;
  }
}

// ---- Seeded random-template property sweeps ----
//
// The campaign-based sweeps above only cover event shapes the real recorders
// happen to emit. These generate structurally diverse templates from a seed
// (kind-coherent fields, nested poll bodies, symbolic exprs over earlier
// binds) and check the serialization properties hold for all of them.

class FuzzRng {
 public:
  explicit FuzzRng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {  // splitmix64
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  bool Chance(uint64_t percent) { return Below(100) < percent; }

 private:
  uint64_t s_;
};

// An expression over a random earlier bind (symbolic) or a constant.
ExprRef RandomExpr(FuzzRng& rng, const std::vector<std::string>& binds) {
  ExprRef base = binds.empty() || rng.Chance(40)
                     ? Expr::Const(rng.Below(1u << 20))
                     : Expr::Input(binds[rng.Below(binds.size())]);
  if (rng.Chance(50)) {
    const ExprOp ops[] = {ExprOp::kAdd, ExprOp::kAnd, ExprOp::kOr, ExprOp::kXor,
                          ExprOp::kShl, ExprOp::kMul};
    return Expr::Binary(ops[rng.Below(6)], base, Expr::Const(1 + rng.Below(255)));
  }
  return base;
}

void FillPollFields(FuzzRng& rng, TemplateEvent& e) {
  e.mask = 1u << rng.Below(31);
  e.want = rng.Chance(50) ? e.mask : 0;
  e.poll_cmp = static_cast<Cmp>(rng.Below(6));
  e.interval_us = 1 + rng.Below(50);
  e.timeout_us = 100 + rng.Below(10000);  // zero would not survive text emit
  e.recorded_iters = static_cast<uint32_t>(rng.Below(8));
  if (rng.Chance(40)) {
    TemplateEvent child;
    child.kind = EventKind::kDelay;
    child.value = Expr::Const(1 + rng.Below(100));
    e.body.push_back(std::move(child));
  }
}

InteractionTemplate MakeRandomTemplate(FuzzRng& rng, int index) {
  InteractionTemplate t;
  t.name = "fz_" + std::to_string(index) + "_" + std::to_string(rng.Below(1000));
  t.entry = "replay_fuzz";
  t.primary_device = static_cast<uint16_t>(rng.Below(16));
  // Alternate the clean-state flag without drawing from |rng|, so every
  // campaign of two or more templates round-trips both values.
  t.leaves_clean_state = (index % 2) == 0;
  t.params.push_back(ParamSpec{"blkcnt", false});
  t.params.push_back(ParamSpec{"buf", true});
  if (rng.Chance(70)) {
    t.initial.AddAtom(ConstraintAtom{Expr::Input("blkcnt"), Cmp::kLe,
                                     Expr::Const(1 + rng.Below(64))});
  }
  if (rng.Chance(30)) {
    t.initial.AddAtom(
        ConstraintAtom{Expr::Input("blkcnt"), Cmp::kGt, Expr::Const(0)});
  }

  std::vector<std::string> binds;   // symbols later exprs may reference
  std::vector<std::string> dmas;    // dma_alloc bindings for shm addrs
  int n_events = 3 + static_cast<int>(rng.Below(8));
  for (int i = 0; i < n_events; ++i) {
    TemplateEvent e;
    e.file = "fuzz_gen.cc";
    e.line = 10 + i;
    switch (rng.Below(10)) {
      case 0: {  // reg_read, maybe state-changing with a constraint
        e.kind = EventKind::kRegRead;
        e.device = t.primary_device;
        e.reg_off = rng.Below(0x100) * 4;
        e.bind = "r" + std::to_string(i);
        if (rng.Chance(50)) {
          e.state_changing = true;
          e.constraint.AddAtom(ConstraintAtom{Expr::Input(e.bind), Cmp::kEq,
                                              Expr::Const(rng.Below(256))});
        }
        binds.push_back(e.bind);
        break;
      }
      case 1:
        e.kind = EventKind::kRegWrite;
        e.device = t.primary_device;
        e.reg_off = rng.Below(0x100) * 4;
        e.value = RandomExpr(rng, binds);
        break;
      case 2:
        e.kind = EventKind::kDmaAlloc;
        e.bind = "dma" + std::to_string(i);
        e.value = Expr::Const(512 << rng.Below(4));
        binds.push_back(e.bind);
        dmas.push_back(e.bind);
        break;
      case 3:
        if (dmas.empty()) {
          e.kind = EventKind::kGetTimestamp;
          e.bind = "ts" + std::to_string(i);
          binds.push_back(e.bind);
          break;
        }
        e.kind = rng.Chance(50) ? EventKind::kShmWrite : EventKind::kShmRead;
        e.addr = Expr::Binary(ExprOp::kAdd, Expr::Input(dmas[rng.Below(dmas.size())]),
                              Expr::Const(rng.Below(64) * 4));
        if (e.kind == EventKind::kShmWrite) {
          e.value = RandomExpr(rng, binds);
        } else {
          e.bind = "s" + std::to_string(i);
          binds.push_back(e.bind);
        }
        break;
      case 4:
        e.kind = EventKind::kWaitIrq;
        e.irq_line = static_cast<int>(rng.Below(64));
        if (rng.Chance(60)) {
          e.timeout_us = 100 + rng.Below(5000);
        }
        break;
      case 5:
        e.kind = EventKind::kDelay;
        e.value = Expr::Const(1 + rng.Below(500));
        break;
      case 6: {
        e.kind = EventKind::kPollReg;
        e.device = t.primary_device;
        e.reg_off = rng.Below(0x100) * 4;
        FillPollFields(rng, e);
        break;
      }
      case 7:
        if (dmas.empty()) {
          e.kind = EventKind::kGetRandBytes;
          e.bind = "rnd" + std::to_string(i);
          binds.push_back(e.bind);
          break;
        }
        e.kind = rng.Chance(50) ? EventKind::kCopyToDma : EventKind::kCopyFromDma;
        e.buffer = "buf";
        e.addr = Expr::Input(dmas[rng.Below(dmas.size())]);
        e.value = Expr::Const(64 << rng.Below(4));
        e.buf_offset = Expr::Const(rng.Below(16) * 64);
        break;
      case 8:
        e.kind = rng.Chance(50) ? EventKind::kPioIn : EventKind::kPioOut;
        e.device = t.primary_device;
        e.reg_off = rng.Below(16) * 4;
        if (e.kind == EventKind::kPioIn) {
          e.bind = "p" + std::to_string(i);
          binds.push_back(e.bind);
        } else {
          e.value = RandomExpr(rng, binds);
        }
        break;
      default:
        if (dmas.empty()) {
          e.kind = EventKind::kGetTimestamp;
          e.bind = "ts" + std::to_string(i);
          binds.push_back(e.bind);
          break;
        }
        e.kind = EventKind::kPollShm;
        e.addr = Expr::Binary(ExprOp::kAdd, Expr::Input(dmas[rng.Below(dmas.size())]),
                              Expr::Const(rng.Below(64) * 4));
        FillPollFields(rng, e);
        break;
    }
    t.events.push_back(std::move(e));
  }
  return t;
}

std::vector<InteractionTemplate> MakeRandomCampaign(uint64_t seed, int count) {
  FuzzRng rng(seed);
  std::vector<InteractionTemplate> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(MakeRandomTemplate(rng, i));
  }
  return out;
}

TEST(SerializePropertyTest, RandomTemplatesBinaryRoundTripExact) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<InteractionTemplate> ts = MakeRandomCampaign(seed, 3);
    std::vector<uint8_t> bin = TemplatesToBinary(ts);
    Result<std::vector<InteractionTemplate>> parsed =
        TemplatesFromBinary(bin.data(), bin.size());
    ASSERT_TRUE(parsed.ok()) << "seed " << seed;
    ASSERT_EQ(ts.size(), parsed->size()) << "seed " << seed;
    for (size_t i = 0; i < ts.size(); ++i) {
      EXPECT_TRUE(SameStateTransition(ts[i].events, (*parsed)[i].events))
          << "seed " << seed << " template " << i;
      EXPECT_EQ(ts[i].leaves_clean_state, (*parsed)[i].leaves_clean_state)
          << "seed " << seed << " template " << i;
    }
    // Binary is full-fidelity: re-emission is byte-identical.
    EXPECT_EQ(bin, TemplatesToBinary(*parsed)) << "seed " << seed;
  }
}

TEST(SerializePropertyTest, RandomTemplatesTextRoundTripFixpoint) {
  for (uint64_t seed = 100; seed <= 119; ++seed) {
    std::vector<InteractionTemplate> ts = MakeRandomCampaign(seed, 3);
    std::string text = TemplatesToText(ts);
    Result<std::vector<InteractionTemplate>> parsed = TemplatesFromText(text);
    ASSERT_TRUE(parsed.ok()) << "seed " << seed << "\n" << text;
    ASSERT_EQ(ts.size(), parsed->size()) << "seed " << seed;
    for (size_t i = 0; i < ts.size(); ++i) {
      EXPECT_TRUE(SameStateTransition(ts[i].events, (*parsed)[i].events))
          << "seed " << seed << " template " << i;
      EXPECT_EQ(ts[i].initial.ToString(), (*parsed)[i].initial.ToString());
      EXPECT_EQ(ts[i].leaves_clean_state, (*parsed)[i].leaves_clean_state)
          << "seed " << seed << " template " << i;
    }
    EXPECT_EQ(text, TemplatesToText(*parsed)) << "seed " << seed;
  }
}

TEST(SerializePropertyTest, TextWithoutCleanLineParsesUnflagged) {
  // Packages sealed before the flag existed carry no `clean` line.
  std::vector<InteractionTemplate> ts = MakeRandomCampaign(23, 1);
  ASSERT_TRUE(ts[0].leaves_clean_state);
  std::string text = TemplatesToText(ts);
  size_t at = text.find("clean 1\n");
  ASSERT_NE(std::string::npos, at);
  text.erase(at, 8);
  Result<std::vector<InteractionTemplate>> parsed = TemplatesFromText(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE((*parsed)[0].leaves_clean_state);

  // The writer emits only `clean 1`; any other value is corrupt.
  for (const char* bad : {"clean 0\n", "clean 2\n"}) {
    std::string corrupt = text;
    corrupt.insert(at, bad);
    EXPECT_EQ(Status::kCorrupt, TemplatesFromText(corrupt).status()) << bad;
  }
}

TEST(SerializePropertyTest, UnknownTemplateFlagBitsRejected) {
  // The flag byte follows the primary-device varint in the template header.
  // Any bit but bit 0 is corrupt.
  std::vector<InteractionTemplate> ts = MakeRandomCampaign(29, 1);
  ts[0].primary_device = 3;  // one-byte varint
  ts[0].leaves_clean_state = true;
  // v1: magic(4) version(1) count varint(1), then name/entry strings.
  std::vector<uint8_t> v1 = TemplatesToBinary(ts);
  size_t off = 6 + 1 + ts[0].name.size() + 1 + ts[0].entry.size() + 1;
  ASSERT_EQ(0x1, v1[off]);
  ASSERT_TRUE(TemplatesFromBinary(v1.data(), v1.size()).ok());
  for (uint8_t bad : {0x2, 0x3, 0x80}) {
    v1[off] = bad;
    EXPECT_EQ(Status::kCorrupt, TemplatesFromBinary(v1.data(), v1.size()).status()) << +bad;
  }
}

// Builds a deliberately small sealed package so the every-byte sweeps below
// stay cheap (sealing is O(n); a whole-package sweep is O(n^2)).
std::vector<uint8_t> SmallSealedPackage() {
  return SealPackage("fuzz", MakeRandomCampaign(7, 1), kDeveloperKey);
}

TEST(SerializePropertyTest, SealedTruncationAtEveryByteRejected) {
  std::vector<uint8_t> sealed = SmallSealedPackage();
  ASSERT_TRUE(OpenPackage(sealed.data(), sealed.size(), kDeveloperKey).ok());
  for (size_t cut = 0; cut < sealed.size(); ++cut) {
    Result<DriverletPackage> r = OpenPackage(sealed.data(), cut, kDeveloperKey);
    ASSERT_FALSE(r.ok()) << "truncation at " << cut << " accepted";
    EXPECT_TRUE(r.status() == Status::kCorrupt || r.status() == Status::kInvalidArg)
        << "truncation at " << cut << ": " << StatusName(r.status());
  }
}

TEST(SerializePropertyTest, SealedCorruptionAtEveryByteRejected) {
  std::vector<uint8_t> sealed = SmallSealedPackage();
  for (size_t pos = 0; pos < sealed.size(); ++pos) {
    sealed[pos] ^= 0x80;
    Result<DriverletPackage> r = OpenPackage(sealed.data(), sealed.size(), kDeveloperKey);
    ASSERT_FALSE(r.ok()) << "flip at " << pos << " accepted";
    EXPECT_TRUE(r.status() == Status::kCorrupt || r.status() == Status::kInvalidArg)
        << "flip at " << pos << ": " << StatusName(r.status());
    sealed[pos] ^= 0x80;
  }
  EXPECT_TRUE(OpenPackage(sealed.data(), sealed.size(), kDeveloperKey).ok());
}

TEST(SerializePropertyTest, RawBinaryTruncationAtEveryOffsetErrors) {
  // Below the signature layer the parser has no HMAC to lean on; the trailing
  // cursor check still guarantees every proper prefix is rejected.
  std::vector<uint8_t> bin = TemplatesToBinary(MakeRandomCampaign(11, 1));
  for (size_t cut = 0; cut < bin.size(); ++cut) {
    Result<std::vector<InteractionTemplate>> r = TemplatesFromBinary(bin.data(), cut);
    ASSERT_FALSE(r.ok()) << "prefix of " << cut << " bytes accepted";
    EXPECT_TRUE(r.status() == Status::kCorrupt || r.status() == Status::kInvalidArg)
        << "prefix " << cut << ": " << StatusName(r.status());
  }
}

TEST(SerializePropertyTest, RawBinaryCorruptionAtEveryByteNeverCrashes) {
  // A flipped byte may still decode to some valid template (e.g. inside a
  // string payload); the property is memory-safety plus a clean status.
  std::vector<uint8_t> bin = TemplatesToBinary(MakeRandomCampaign(13, 1));
  for (size_t pos = 0; pos < bin.size(); ++pos) {
    std::vector<uint8_t> bad = bin;
    bad[pos] ^= 0xff;
    Result<std::vector<InteractionTemplate>> r = TemplatesFromBinary(bad.data(), bad.size());
    if (!r.ok()) {
      EXPECT_TRUE(r.status() == Status::kCorrupt || r.status() == Status::kInvalidArg)
          << "flip at " << pos << ": " << StatusName(r.status());
    }
  }
}

}  // namespace
}  // namespace dlt
