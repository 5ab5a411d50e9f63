// Shared deployment/package helpers used by the test suite, the benchmark
// binaries and the fault-matrix campaign: record-and-seal one package per
// driverlet on a fresh developer machine, and stand up a deployment machine
// (devices assigned to the TEE, a ReplayService hosting the package, one open
// session) in a single call.
#ifndef SRC_WORKLOAD_DEPLOY_UTIL_H_
#define SRC_WORKLOAD_DEPLOY_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/kern/block_layer.h"
#include "src/tee/replay_service.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"

namespace dlt {

// A deployment machine with devices assigned to the TEE and a ReplayService
// hosting the given sealed package, with one session already open against it.
// |replayer| is the registered device class's replayer inside the service
// (reset/retry knobs and divergence reports for the ablation benches).
struct Deployment {
  std::unique_ptr<Rpi3Testbed> tb;
  std::unique_ptr<ReplayService> service;
  std::string driverlet;
  SessionId session = 0;
  Replayer* replayer = nullptr;  // owned by |service|
};

inline Deployment MakeDeployment(const std::vector<uint8_t>& sealed,
                                 ReplayServiceConfig cfg = {}) {
  Deployment d;
  TestbedOptions opts;
  opts.secure_io = true;
  opts.probe_drivers = false;
  d.tb = std::make_unique<Rpi3Testbed>(opts);
  d.service = std::make_unique<ReplayService>(&d.tb->tee(), kDeveloperKey, cfg);
  Result<std::string> name = d.service->RegisterDriverlet(sealed.data(), sealed.size());
  if (!name.ok()) {
    std::fprintf(stderr, "package registration failed: %s\n", StatusName(name.status()));
    return d;
  }
  d.driverlet = *name;
  d.replayer = d.service->replayer(d.driverlet);
  Result<SessionId> sid = d.service->OpenSession(d.driverlet);
  if (!sid.ok()) {
    std::fprintf(stderr, "session open failed: %s\n", StatusName(sid.status()));
    return d;
  }
  d.session = *sid;
  return d;
}

// Records a campaign on a fresh developer machine and returns the sealed
// package (empty when the campaign fails).
inline std::vector<uint8_t> BuildPackage(Result<RecordCampaign> (*record)(Rpi3Testbed*)) {
  Rpi3Testbed dev{TestbedOptions{}};
  Result<RecordCampaign> c = record(&dev);
  return c.ok() ? c->Seal(kDeveloperKey) : std::vector<uint8_t>{};
}
inline std::vector<uint8_t> BuildMmcPackage() { return BuildPackage(&RecordMmcCampaign); }
inline std::vector<uint8_t> BuildUsbPackage() { return BuildPackage(&RecordUsbCampaign); }
inline std::vector<uint8_t> BuildCameraPackage() { return BuildPackage(&RecordCameraCampaign); }
inline std::vector<uint8_t> BuildDisplayPackage() { return BuildPackage(&RecordDisplayCampaign); }
inline std::vector<uint8_t> BuildTouchPackage() { return BuildPackage(&RecordTouchCampaign); }
inline std::vector<uint8_t> BuildFtpmPackage() { return BuildPackage(&RecordFtpmCampaign); }
inline std::vector<uint8_t> BuildCryptoaccPackage() {
  return BuildPackage(&RecordCryptoaccCampaign);
}

// The registered driverlet classes — THE class list. Everything that sweeps
// "all driverlets" (bench/fig8_micro, `driverletc record/trace/faultsweep`,
// the boundary fuzzer's class tables, the fault matrix) iterates this table
// instead of hard-coding {mmc, usb, camera}; adding a class here is the only
// registration step a new device class needs outside its own sources.
struct DriverletClassSpec {
  const char* name;    // campaign/driverlet name ("mmc")
  const char* entry;   // replay entry ("replay_mmc")
  std::vector<uint8_t> (*build_package)();
  Result<RecordCampaign> (*record)(Rpi3Testbed*);
};

inline const std::vector<DriverletClassSpec>& RegisteredDriverletClasses() {
  static const std::vector<DriverletClassSpec> kClasses = {
      {"mmc", kMmcEntry, &BuildMmcPackage, &RecordMmcCampaign},
      {"usb", kUsbEntry, &BuildUsbPackage, &RecordUsbCampaign},
      {"camera", kCameraEntry, &BuildCameraPackage, &RecordCameraCampaign},
      {"ftpm", kFtpmEntry, &BuildFtpmPackage, &RecordFtpmCampaign},
      {"cryptoacc", kCryptoaccEntry, &BuildCryptoaccPackage, &RecordCryptoaccCampaign},
  };
  return kClasses;
}

inline const DriverletClassSpec* FindDriverletClass(std::string_view name) {
  for (const DriverletClassSpec& c : RegisteredDriverletClasses()) {
    if (name == c.name) {
      return &c;
    }
  }
  return nullptr;
}

inline std::vector<std::string> RegisteredDriverletClassNames() {
  std::vector<std::string> names;
  for (const DriverletClassSpec& c : RegisteredDriverletClasses()) {
    names.emplace_back(c.name);
  }
  return names;
}

// Synthesizes one covered invoke (scalars + buffers) for a driverlet entry —
// the shared per-class arg table behind `driverletc smoke/trace/fleet/ring`
// and the registry-driven benches. |buf|/|aux| back the BufferViews and must
// outlive the invoke; |round| varies addresses and payloads across repeated
// calls while staying inside each class's recorded coverage. Returns false
// for entries with no synthesizable load (touch needs injected input events).
inline bool CoveredArgsFor(const std::string& entry, int round, std::vector<uint8_t>* buf,
                           std::vector<uint8_t>* aux, ReplayArgs* args) {
  *args = ReplayArgs{};
  if (entry == kMmcEntry || entry == kUsbEntry) {
    buf->assign(8 * 512, static_cast<uint8_t>(0x40 + round % 64));
    args->scalars = {{"rw", kMmcRwWrite},
                     {"blkcnt", 8},
                     {"blkid", 2048 + static_cast<uint64_t>(round % 8) * 8},
                     {"flag", 0}};
    args->buffers["buf"] = BufferView{buf->data(), buf->size()};
    return true;
  }
  if (entry == kCameraEntry) {
    buf->assign(Vc4Firmware::FrameBytes(1440) + 4096, 0);
    aux->assign(4, 0);
    args->scalars = {{"frame", 1}, {"resolution", 720}, {"buf_size", buf->size()}};
    args->buffers["buf"] = BufferView{buf->data(), buf->size()};
    args->buffers["img_size"] = BufferView{aux->data(), aux->size()};
    return true;
  }
  if (entry == kDisplayEntry) {
    buf->assign(64 * 64 * 4, 0x33);
    args->scalars = {{"x", 0}, {"y", 0}, {"w", 64}, {"h", 64}};
    args->buffers["buf"] = BufferView{buf->data(), buf->size()};
    return true;
  }
  if (entry == kFtpmEntry) {
    buf->assign(kFtpmPcrBytes, 0);
    aux->assign(kFtpmMaxRandom, 0);
    args->scalars = {{"ord", kFtpmOrdGetRandom},
                     {"arg", 32 + static_cast<uint64_t>(round % 8) * 32}};
    args->ro_buffers["req"] = ConstBufferView{buf->data(), buf->size()};
    args->buffers["rsp"] = BufferView{aux->data(), aux->size()};
    return true;
  }
  if (entry == kCryptoaccEntry) {
    buf->assign(kCryptoChunkBytes, static_cast<uint8_t>(0x21 + round % 64));
    aux->assign(kCryptoChunkBytes, 0);
    args->scalars = {{"op", kCaOpEncrypt},
                     {"key", 0xc0ffee00 + static_cast<uint64_t>(round % 16)},
                     {"len", buf->size()}};
    args->ro_buffers["buf"] = ConstBufferView{buf->data(), buf->size()};
    args->buffers["out"] = BufferView{aux->data(), aux->size()};
    return true;
  }
  return false;
}

// The --seeds/--base-seed flag pair every seeded sweep driver accepts
// (bench/conformance_sweep, bench/fault_matrix, `driverletc faultsweep` and
// `driverletc check`): a contiguous range of |count| seeds starting at |base|.
struct SeedRange {
  int count = 4;
  uint64_t base = 1;

  bool valid() const { return count >= 1; }
  std::vector<uint64_t> List() const {
    std::vector<uint64_t> seeds;
    if (count > 0) {
      seeds.reserve(static_cast<size_t>(count));
      for (int i = 0; i < count; ++i) {
        seeds.push_back(base + static_cast<uint64_t>(i));
      }
    }
    return seeds;
  }
};

inline bool IsSeedRangeFlag(const char* flag) {
  return std::strcmp(flag, "--seeds") == 0 || std::strcmp(flag, "--base-seed") == 0;
}

// Applies one flag/value pair; call only when IsSeedRangeFlag(flag) is true.
inline void ApplySeedRangeFlag(SeedRange* r, const char* flag, const char* value) {
  if (std::strcmp(flag, "--seeds") == 0) {
    r->count = std::atoi(value);
  } else if (std::strcmp(flag, "--base-seed") == 0) {
    r->base = std::strtoull(value, nullptr, 0);
  }
}

// Deterministic test payload: |len| bytes derived from |seed|.
inline std::vector<uint8_t> PatternBuf(size_t len, uint64_t seed) {
  std::vector<uint8_t> buf(len);
  for (size_t i = 0; i < len; ++i) {
    buf[i] = static_cast<uint8_t>((seed * 131 + i * 7 + (i >> 8)) & 0xff);
  }
  return buf;
}

// Horizontal rule for bench/tool table output.
inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

// In-memory BlockDevice with no timing model; for engine-level tests (MiniDb,
// page cache) that do not need the simulated machine.
class MemBlockDevice : public BlockDevice {
 public:
  explicit MemBlockDevice(uint64_t sectors) : sectors_(sectors) {}

  Status Read(uint64_t lba, uint32_t count, uint8_t* out) override {
    if (lba + count > sectors_) {
      return Status::kOutOfRange;
    }
    for (uint32_t i = 0; i < count; ++i) {
      auto it = data_.find(lba + i);
      if (it == data_.end()) {
        std::memset(out + i * 512, 0, 512);
      } else {
        std::memcpy(out + i * 512, it->second.data(), 512);
      }
    }
    ++ops_;
    return Status::kOk;
  }

  Status Write(uint64_t lba, uint32_t count, const uint8_t* data) override {
    if (lba + count > sectors_) {
      return Status::kOutOfRange;
    }
    for (uint32_t i = 0; i < count; ++i) {
      auto& sector = data_[lba + i];
      sector.resize(512);
      std::memcpy(sector.data(), data + i * 512, 512);
    }
    ++ops_;
    return Status::kOk;
  }

  Status Flush() override { return Status::kOk; }
  uint64_t io_ops() const override { return ops_; }

 private:
  uint64_t sectors_;
  std::map<uint64_t, std::vector<uint8_t>> data_;
  uint64_t ops_ = 0;
};

}  // namespace dlt

#endif  // SRC_WORKLOAD_DEPLOY_UTIL_H_
