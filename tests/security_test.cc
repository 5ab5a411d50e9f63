// Security tests (paper §7.2.2): TZASC isolation, package signatures, the
// replayer's pervasive boundary checks, and TEE device-mapping policy.
#include <gtest/gtest.h>

#include <cstring>

#include "src/core/replayer.h"
#include "src/core/serialize_text.h"
#include "src/crypto/hmac.h"
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
    sealed_ = new std::vector<uint8_t>(campaign->Seal(PackageFormat::kText, kDeveloperKey));
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

TEST_F(SecurityTest, RetiredV2PackagesFailClosed) {
  // A package sealed by an older build in the retired zero-copy generation
  // carries a valid developer signature but a format this build does not
  // read. Every loader must refuse it and leave the store untouched; a build
  // that still read it would replace the driverlet with an empty one here.
  // The smallest well-formed binary-v2 payload: "BDLT", version 2, then a
  // zero template count and a zero directory length (u32 each).
  std::vector<uint8_t> payload = {'B', 'D', 'L', 'T', 2, 0, 0, 0, 0, 0, 0, 0, 0};

  // (a) The "DLTPKG02" envelope, uncompressed payload, signed correctly:
  // magic | format 2 | name_len | name | payload_len(u32) | payload | HMAC.
  std::vector<uint8_t> v2_envelope = {'D', 'L', 'T', 'P', 'K', 'G', '0', '2', 2};
  v2_envelope.push_back(static_cast<uint8_t>(pkg_->driverlet.size()));
  v2_envelope.insert(v2_envelope.end(), pkg_->driverlet.begin(), pkg_->driverlet.end());
  uint32_t payload_len = static_cast<uint32_t>(payload.size());
  v2_envelope.resize(v2_envelope.size() + 4);
  std::memcpy(v2_envelope.data() + v2_envelope.size() - 4, &payload_len, 4);
  v2_envelope.insert(v2_envelope.end(), payload.begin(), payload.end());
  Sha256::Digest mac = HmacSha256(kDeveloperKey, v2_envelope.data(), v2_envelope.size());
  v2_envelope.insert(v2_envelope.end(), mac.begin(), mac.end());

  // (b) A current envelope whose binary payload is that version-2 stream.
  std::vector<uint8_t> v2_payload =
      SealPackageRaw(pkg_->driverlet, PackageWire::kV1Binary, payload, kDeveloperKey);

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

TEST_F(SecurityTest, FabricatedTemplateWithWildAddressIsBlocked) {
  // An adversary who could somehow inject a template pointing shared-memory
  // events outside the run's own DMA allocations is stopped by the executor's
  // boundary checks (paper §5, "pervasive boundary checks").
  DriverletPackage evil = *pkg_;
  for (auto& t : evil.templates) {
    for (auto& e : t.events) {
      if (e.kind == EventKind::kShmWrite) {
        e.addr = Expr::Const(0x100);  // normal-world RAM, outside the TEE pool
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
