// Security tests (paper §7.2.2): TZASC isolation, package signatures, the
// replayer's pervasive boundary checks, and TEE device-mapping policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "src/core/replayer.h"
#include "src/core/serialize_binary.h"
#include "src/crypto/hmac.h"
#include "src/record/package_writer.h"
#include "src/record/serialize_text.h"
#include "src/tee/replay_service.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

class SecurityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rpi3Testbed dev{TestbedOptions{}};
    Result<RecordCampaign> campaign = RecordMmcCampaign(&dev);
    ASSERT_TRUE(campaign.ok());
    pkg_ = new DriverletPackage(campaign->MakePackage());
    sealed_ = new std::vector<uint8_t>(campaign->Seal(kDeveloperKey));
  }
  static void TearDownTestSuite() {
    delete pkg_;
    delete sealed_;
  }

  void SetUp() override {
    TestbedOptions opts;
    opts.secure_io = true;
    opts.probe_drivers = false;
    deploy_ = std::make_unique<Rpi3Testbed>(opts);
  }

  static DriverletPackage* pkg_;
  static std::vector<uint8_t>* sealed_;
  std::unique_ptr<Rpi3Testbed> deploy_;
};

DriverletPackage* SecurityTest::pkg_ = nullptr;
std::vector<uint8_t>* SecurityTest::sealed_ = nullptr;

TEST_F(SecurityTest, NormalWorldDeniedOnAllSecureDevices) {
  auto& mem = deploy_->machine().mem();
  for (PhysAddr base : {kMmcBase, kUsbBase, kMailboxBase, kDmaEngineBase}) {
    EXPECT_EQ(Status::kPermissionDenied, mem.Read32(World::kNormal, base).status()) << base;
    EXPECT_EQ(Status::kPermissionDenied, mem.Write32(World::kNormal, base, 0)) << base;
  }
  // TEE RAM reservation is also closed to the normal world.
  EXPECT_EQ(Status::kPermissionDenied, mem.Read32(World::kNormal, kTeePoolBase).status());
}

// The normal-world kernel passes driver-chosen addresses to its CPU copies;
// none that overlaps the TEE pool may read or change a byte inside it.
TEST_F(SecurityTest, NormalWorldCannotStraddleIntoTeePool) {
  auto& mem = deploy_->machine().mem();
  ASSERT_EQ(Status::kOk, mem.Write32(World::kSecure, kTeePoolBase, 0x5ec0'0001));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kSecure, kTeePoolBase + 64, 0x5ec0'0002));
  std::vector<uint8_t> buf(kTeePoolSize + 8192);
  EXPECT_EQ(Status::kPermissionDenied,
            mem.ReadBytes(World::kNormal, kTeePoolBase - 4096, buf.data(), buf.size()));
  EXPECT_EQ(0, std::count(buf.begin(), buf.end(), 0x02)) << "secure bytes copied out";
  EXPECT_EQ(Status::kPermissionDenied,
            mem.WriteBytes(World::kNormal, kTeePoolBase - 4096, buf.data(), buf.size()));
  EXPECT_EQ(Status::kPermissionDenied, mem.Read32(World::kNormal, kTeePoolBase - 2).status());
  EXPECT_EQ(Status::kPermissionDenied, mem.Write32(World::kNormal, kTeePoolBase - 2, 0));
  EXPECT_EQ(0x5ec0'0001u, *mem.Read32(World::kSecure, kTeePoolBase));
  EXPECT_EQ(0x5ec0'0002u, *mem.Read32(World::kSecure, kTeePoolBase + 64));
  // An empty copy at the pool's end touches no secure byte.
  EXPECT_EQ(Status::kOk,
            mem.ReadBytes(World::kNormal, kTeePoolBase + kTeePoolSize, buf.data(), 0));
}

TEST_F(SecurityTest, TamperedPackageRefusedBeforeUse) {
  // "It verifies recording integrity by developers' signatures prior to use".
  std::vector<uint8_t> bad = *sealed_;
  bad[bad.size() / 3] ^= 0x40;
  Replayer replayer(&deploy_->tee(), kDeveloperKey);
  EXPECT_EQ(Status::kCorrupt, replayer.LoadPackage(bad.data(), bad.size()));
  EXPECT_TRUE(replayer.templates().empty());
}

TEST_F(SecurityTest, WrongSigningKeyRefused) {
  Replayer replayer(&deploy_->tee(), "attacker-key");
  EXPECT_EQ(Status::kCorrupt, replayer.LoadPackage(sealed_->data(), sealed_->size()));
}

// A correctly signed envelope assembled by hand, so a test can pick the magic
// and the format byte: magic | format | name_len | name | payload_len(u32) |
// payload | HMAC over all of it.
std::vector<uint8_t> SignedEnvelope(std::string_view magic, uint8_t format,
                                    const std::string& driverlet,
                                    const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out(magic.begin(), magic.end());
  out.push_back(format);
  out.push_back(static_cast<uint8_t>(driverlet.size()));
  out.insert(out.end(), driverlet.begin(), driverlet.end());
  uint32_t payload_len = static_cast<uint32_t>(payload.size());
  out.resize(out.size() + 4);
  std::memcpy(out.data() + out.size() - 4, &payload_len, 4);
  out.insert(out.end(), payload.begin(), payload.end());
  Sha256::Digest mac = HmacSha256(kDeveloperKey, out.data(), out.size());
  out.insert(out.end(), mac.begin(), mac.end());
  return out;
}

TEST_F(SecurityTest, RetiredV2PackagesFailClosed) {
  // A package sealed by an older build in the retired zero-copy generation
  // carries a valid developer signature but a format this build does not
  // read. Every loader must refuse it and leave the store untouched; a build
  // that still read it would replace the driverlet with an empty one here.
  // The smallest well-formed binary-v2 payload: "BDLT", version 2, then a
  // zero template count and a zero directory length (u32 each).
  std::vector<uint8_t> payload = {'B', 'D', 'L', 'T', 2, 0, 0, 0, 0, 0, 0, 0, 0};

  // (a) The "DLTPKG02" envelope, uncompressed payload, signed correctly.
  std::vector<uint8_t> v2_envelope = SignedEnvelope("DLTPKG02", 2, pkg_->driverlet, payload);

  // (b) A current envelope whose binary payload is that version-2 stream.
  std::vector<uint8_t> v2_payload = SealPackageRaw(pkg_->driverlet, payload, kDeveloperKey);

  Replayer replayer(&deploy_->tee(), kDeveloperKey);
  ASSERT_EQ(Status::kOk, replayer.LoadPackage(sealed_->data(), sealed_->size()));
  ReplayService service(&deploy_->tee(), kDeveloperKey);
  ASSERT_TRUE(service.RegisterDriverlet(sealed_->data(), sealed_->size()).ok());
  const size_t loaded = replayer.store().template_count();
  ASSERT_GT(loaded, 0u);
  ASSERT_EQ(loaded, service.store().template_count());

  for (const std::vector<uint8_t>* bytes : {&v2_envelope, &v2_payload}) {
    SCOPED_TRACE(bytes == &v2_envelope ? "DLTPKG02 envelope" : "binary version 2");
    EXPECT_EQ(Status::kCorrupt, OpenPackage(bytes->data(), bytes->size(), kDeveloperKey).status());
    EXPECT_EQ(Status::kCorrupt, replayer.LoadPackage(bytes->data(), bytes->size()));
    EXPECT_EQ(loaded, replayer.store().template_count());
    EXPECT_EQ(Status::kCorrupt, service.RegisterDriverlet(bytes->data(), bytes->size()).status());
    EXPECT_EQ(loaded, service.store().template_count());
  }
}

TEST_F(SecurityTest, RetiredTextPackagesFailClosed) {
  // A text package sealed by an older build: the current "DLTPKG01"
  // envelope with format byte 0 and the LZSS-compressed text documents,
  // correctly signed. No loader may parse it, since the TEE carries no text
  // decoder, and the store stays untouched.
  std::string text = TemplatesToText(pkg_->templates);
  std::vector<uint8_t> text_envelope =
      SignedEnvelope("DLTPKG01", 0, pkg_->driverlet,
                     LzssCompress(reinterpret_cast<const uint8_t*>(text.data()), text.size()));
  // The same assembly with format byte 1 over the binary payload is exactly
  // what the sealer writes, so only the format byte is on trial.
  std::vector<uint8_t> bin = TemplatesToBinary(pkg_->templates);
  ASSERT_EQ(SealPackage(pkg_->driverlet, pkg_->templates, kDeveloperKey),
            SignedEnvelope("DLTPKG01", 1, pkg_->driverlet, LzssCompress(bin.data(), bin.size())));

  Replayer replayer(&deploy_->tee(), kDeveloperKey);
  ASSERT_EQ(Status::kOk, replayer.LoadPackage(sealed_->data(), sealed_->size()));
  ReplayService service(&deploy_->tee(), kDeveloperKey);
  ASSERT_TRUE(service.RegisterDriverlet(sealed_->data(), sealed_->size()).ok());
  const size_t loaded = replayer.store().template_count();
  ASSERT_GT(loaded, 0u);

  EXPECT_EQ(Status::kCorrupt,
            OpenPackage(text_envelope.data(), text_envelope.size(), kDeveloperKey).status());
  EXPECT_EQ(Status::kCorrupt, replayer.LoadPackage(text_envelope.data(), text_envelope.size()));
  EXPECT_EQ(loaded, replayer.store().template_count());
  EXPECT_EQ(Status::kCorrupt,
            service.RegisterDriverlet(text_envelope.data(), text_envelope.size()).status());
  EXPECT_EQ(loaded, service.store().template_count());
}

// Hand-assembled binary-v1 payloads (docs/template_format.md), for values the
// encoder never writes.
void PutVarint(uint64_t v, std::vector<uint8_t>* out) {
  for (; v >= 0x80; v >>= 7) out->push_back(static_cast<uint8_t>(v) | 0x80);
  out->push_back(static_cast<uint8_t>(v));
}

// The fields of one kRegWrite event in wire order; the narrow ones are
// settable so a test can put a value there that does not fit.
struct ForgedEvent {
  uint64_t device = 1;
  uint64_t irq = 0;  // irq_line + 1
  uint64_t mask = 0;
  uint64_t want = 0;
  uint64_t iters = 0;
  uint64_t line = 7;
};

std::vector<uint8_t> OneTemplatePayload(uint64_t primary_device, const ForgedEvent& ev) {
  std::vector<uint8_t> out = {'B', 'D', 'L', 'T', 1, 1};  // magic, version, count
  out.insert(out.end(), {1, 'x', 0});  // name "x", entry ""
  PutVarint(primary_device, &out);
  out.insert(out.end(), {0, 0, 0});  // flags, no params, no initial atoms
  out.push_back(1);                  // one event
  out.push_back(static_cast<uint8_t>(EventKind::kRegWrite));
  PutVarint(ev.device, &out);
  out.insert(out.end(), {0, 0xff, 0, 0, 0, 0xff, 0, 0xff});  // reg_off .. buf_offset
  PutVarint(ev.irq, &out);
  PutVarint(ev.mask, &out);
  PutVarint(ev.want, &out);
  out.insert(out.end(), {0, 0, 0});  // poll_cmp, timeout_us, interval_us
  PutVarint(ev.iters, &out);
  out.push_back(0);  // file ""
  PutVarint(ev.line, &out);
  out.push_back(0);  // no body
  return out;
}

TEST_F(SecurityTest, MalformedBinaryFieldsFailClosed) {
  // A correctly signed payload whose values do not fit their fields is a
  // forgery. The decoder must say kCorrupt, not throw and not truncate.
  // "BDLT", version 1, one template, then a name length of 2^64 - 1 and one
  // byte of name.
  const std::vector<uint8_t> huge_string = {'B',  'D',  'L',  'T',  1,    1,
                                            0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                                            0xff, 0xff, 0xff, 0x01, 'x'};
  // "BDLT", version 1, then a template count of 2^64: one bit wider than a
  // varint may carry, and with that bit dropped an empty package.
  const std::vector<uint8_t> wide_count = {'B',  'D',  'L',  'T',  1,    0x80, 0x80, 0x80,
                                           0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02};
  const uint64_t k2p32 = uint64_t{1} << 32;
  struct Forgery {
    const char* what;
    std::vector<uint8_t> payload;
  };
  const std::vector<Forgery> forgeries = {
      {"string length near 2^64", huge_string},
      {"template count 2^64", wide_count},
      {"primary_device 65537", OneTemplatePayload(65537, {})},
      {"event device 65537", OneTemplatePayload(1, {.device = 65537})},
      {"irq 2^32 + 4", OneTemplatePayload(1, {.irq = k2p32 + 4})},
      {"mask 2^32 + 1", OneTemplatePayload(1, {.mask = k2p32 + 1})},
      {"want 2^32 + 1", OneTemplatePayload(1, {.want = k2p32 + 1})},
      {"iters 2^32 + 1", OneTemplatePayload(1, {.iters = k2p32 + 1})},
      {"line 2^32 + 7", OneTemplatePayload(1, {.line = k2p32 + 7})},
  };
  // The hand assembly itself is sound: in-range values open.
  std::vector<uint8_t> fits = SealPackageRaw(pkg_->driverlet, OneTemplatePayload(1, {}),
                                             kDeveloperKey);
  ASSERT_TRUE(OpenPackage(fits.data(), fits.size(), kDeveloperKey).ok());

  Replayer replayer(&deploy_->tee(), kDeveloperKey);
  ASSERT_EQ(Status::kOk, replayer.LoadPackage(sealed_->data(), sealed_->size()));
  ReplayService service(&deploy_->tee(), kDeveloperKey);
  ASSERT_TRUE(service.RegisterDriverlet(sealed_->data(), sealed_->size()).ok());
  const size_t loaded = replayer.store().template_count();
  ASSERT_GT(loaded, 0u);

  for (const Forgery& f : forgeries) {
    SCOPED_TRACE(f.what);
    std::vector<uint8_t> bytes = SealPackageRaw(pkg_->driverlet, f.payload, kDeveloperKey);
    EXPECT_EQ(Status::kCorrupt, OpenPackage(bytes.data(), bytes.size(), kDeveloperKey).status());
    EXPECT_EQ(Status::kCorrupt, replayer.LoadPackage(bytes.data(), bytes.size()));
    EXPECT_EQ(loaded, replayer.store().template_count());
    EXPECT_EQ(Status::kCorrupt, service.RegisterDriverlet(bytes.data(), bytes.size()).status());
    EXPECT_EQ(loaded, service.store().template_count());
  }
}

TEST_F(SecurityTest, FabricatedTemplateWithWildAddressIsBlocked) {
  // An adversary who could somehow inject a template pointing shared-memory
  // events outside the run's own DMA allocations is stopped by the executor's
  // boundary checks (paper §5, "pervasive boundary checks").
  const PhysAddr kWildAddrs[] = {
      0x100,                  // normal-world RAM, outside the TEE pool
      0xffff'ffff'ffff'fffe,  // addr + 4 wraps to 2, under every pool bound
  };
  for (PhysAddr wild : kWildAddrs) {
    SCOPED_TRACE(wild);
    DriverletPackage evil = *pkg_;
    for (auto& t : evil.templates) {
      for (auto& e : t.events) {
        if (e.kind == EventKind::kShmWrite) {
          e.addr = Expr::Const(wild);
        }
      }
    }
    Replayer replayer(&deploy_->tee(), kDeveloperKey);
    ASSERT_EQ(Status::kOk, replayer.LoadPackage(evil));
    std::vector<uint8_t> buf(8 * 512, 0);
    ReplayArgs args;
    args.scalars = {{"rw", kMmcRwRead}, {"blkcnt", 8}, {"blkid", 0}, {"flag", 0}};
    args.buffers["buf"] = BufferView{buf.data(), buf.size()};
    Result<ReplayStats> r = replayer.Invoke(kMmcEntry, args);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(Status::kPermissionDenied, r.status());
  }
}

TEST_F(SecurityTest, OversizedCopyIntoTrustletBufferIsBlocked) {
  // A template whose copy length exceeds the trustlet buffer must be rejected
  // by the buffer boundary check, not overflow the trustlet.
  DriverletPackage evil = *pkg_;
  for (auto& t : evil.templates) {
    for (auto& e : t.events) {
      if (e.kind == EventKind::kCopyFromDma) {
        e.value = Expr::Const(1 << 20);  // 1 MB into a 4 KB buffer
      }
    }
  }
  Replayer replayer(&deploy_->tee(), kDeveloperKey);
  ASSERT_EQ(Status::kOk, replayer.LoadPackage(evil));
  std::vector<uint8_t> buf(8 * 512, 0);
  ReplayArgs args;
  args.scalars = {{"rw", kMmcRwRead}, {"blkcnt", 8}, {"blkid", 0}, {"flag", 0}};
  args.buffers["buf"] = BufferView{buf.data(), buf.size()};
  Result<ReplayStats> r = replayer.Invoke(kMmcEntry, args);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(Status::kInvalidArg, r.status());
}

TEST_F(SecurityTest, TemplateTouchingUnmappedDeviceIsBlocked) {
  // Register accesses are confined to devices the TEE actually mapped.
  DriverletPackage evil = *pkg_;
  for (auto& t : evil.templates) {
    for (auto& e : t.events) {
      if (e.kind == EventKind::kRegWrite) {
        e.device = 99;  // no such mapping
      }
    }
  }
  Replayer replayer(&deploy_->tee(), kDeveloperKey);
  ASSERT_EQ(Status::kOk, replayer.LoadPackage(evil));
  std::vector<uint8_t> buf(512, 0);
  ReplayArgs args;
  args.scalars = {{"rw", kMmcRwRead}, {"blkcnt", 1}, {"blkid", 0}, {"flag", 0}};
  args.buffers["buf"] = BufferView{buf.data(), buf.size()};
  Result<ReplayStats> r = replayer.Invoke(kMmcEntry, args);
  ASSERT_FALSE(r.ok());
}

TEST_F(SecurityTest, TeeRefusesToMapNonSecureDevice) {
  // On a machine where firmware did NOT assign the device instance to the TEE,
  // MapDevice must refuse (no secure IO without TZASC protection).
  Rpi3Testbed open_machine{TestbedOptions{.secure_io = false, .probe_drivers = false}};
  EXPECT_EQ(Status::kPermissionDenied, open_machine.tee().MapDevice(open_machine.mmc_id()));
}

TEST_F(SecurityTest, MissingBufferArgumentRejectedNotCrash) {
  Replayer replayer(&deploy_->tee(), kDeveloperKey);
  ASSERT_EQ(Status::kOk, replayer.LoadPackage(sealed_->data(), sealed_->size()));
  ReplayArgs args;
  args.scalars = {{"rw", kMmcRwRead}, {"blkcnt", 8}, {"blkid", 0}, {"flag", 0}};
  // No "buf" buffer supplied.
  Result<ReplayStats> r = replayer.Invoke(kMmcEntry, args);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(Status::kInvalidArg, r.status());
}

TEST_F(SecurityTest, MissingScalarArgumentRejected) {
  Replayer replayer(&deploy_->tee(), kDeveloperKey);
  ASSERT_EQ(Status::kOk, replayer.LoadPackage(sealed_->data(), sealed_->size()));
  ReplayArgs args;
  args.scalars = {{"rw", kMmcRwRead}};
  Result<ReplayStats> r = replayer.Invoke(kMmcEntry, args);
  // A candidate missing one of its params is skipped, not an argument error:
  // with no template's param set satisfied, the input is simply uncovered.
  EXPECT_EQ(Status::kNoTemplate, r.status());
}

TEST_F(SecurityTest, UnknownEntryRejected) {
  Replayer replayer(&deploy_->tee(), kDeveloperKey);
  ASSERT_EQ(Status::kOk, replayer.LoadPackage(sealed_->data(), sealed_->size()));
  ReplayArgs args;
  Result<ReplayStats> r = replayer.Invoke("replay_gpu", args);
  EXPECT_EQ(Status::kNoTemplate, r.status());
}

}  // namespace
}  // namespace dlt
