// Mixed-traffic service benchmark: one SecureWorld + ReplayService serving MMC
// block IO, USB storage and camera captures through concurrently open sessions
// — the production shape the session refactor targets. Two measurements:
//
//  1. Selection scaling: the same MMC request stream is replayed against a
//     store holding only the MMC package, then again after USB + camera +
//     display + touch more than double the template population. Select scans
//     only the invoked (driverlet, entry) slot, so the candidates examined per
//     invoke stay flat: every invoke scans the MMC slot's 10 templates.
//  2. Mixed traffic: MMC/USB/camera sessions interleaved round-robin, half the
//     block requests through their sessions' invocation rings, half direct.
//     Per-session stats and the service invoke-latency histogram (virtual
//     time) feed BENCH_replay_service.json so future PRs have a perf
//     trajectory.
//  3. Switch amortization (--batch 1,8,64): the same MMC command stream is
//     driven through the per-session invocation ring at each
//     commands-per-doorbell size, plus once through plain Invoke (the
//     pre-ring path). Measures world switches per command, model time per
//     command and the in-batch queue-wait p50/p99, and self-checks that every
//     configuration produces digest-identical read-back bytes.
//  4. Device-class profile: a database (MiniDb over the MMC driverlet),
//     camera captures, fTPM PCR/quote/attest traffic and crypto-accelerator
//     jobs interleave through four sessions of one service. Every byte a leg
//     reads back folds into a per-leg FNV digest that must equal a sequential
//     baseline running the identical per-leg schedule on a fresh machine —
//     equal digests prove concurrent traffic from the other classes changed
//     nothing (session isolation across all five template shapes).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/record/quote.h"
#include "src/tee/replay_service.h"
#include "src/obs/telemetry.h"
#include "src/workload/deploy_util.h"
#include "src/workload/minidb.h"
#include "src/workload/replay_block_device.h"

namespace dlt {
namespace {

constexpr int kSelectionInvokes = 200;
constexpr int kMixedRounds = 120;
constexpr size_t kAmortCommands = 128;   // divisible by every default batch size
constexpr size_t kAmortBlocks = 8;       // blocks per command
constexpr size_t kAmortBytes = kAmortBlocks * 512;

struct BlockClient {
  SessionId session = 0;
  const char* entry = nullptr;
  uint64_t next_blkid = 2048;
};

ReplayArgs BlockArgs(BlockClient* c, uint64_t rw, uint64_t blkcnt, std::vector<uint8_t>* buf) {
  ReplayArgs args;
  args.scalars = {{"rw", rw}, {"blkcnt", blkcnt}, {"blkid", c->next_blkid}, {"flag", 0}};
  args.buffers["buf"] = BufferView{buf->data(), static_cast<size_t>(blkcnt) * 512};
  c->next_blkid += 4096;
  return args;
}

// Drives the recorded MMC granularities in a fixed cycle; returns scans/invoke.
double SelectionPhase(ReplayService* svc, BlockClient* mmc, std::vector<uint8_t>* buf) {
  const uint64_t sizes[] = {1, 8, 32, 128, 256};
  uint64_t scans0 = svc->store().candidates_scanned();
  int ok = 0;
  for (int i = 0; i < kSelectionInvokes; ++i) {
    uint64_t blkcnt = sizes[i % 5];
    uint64_t rw = (i % 2) == 0 ? kMmcRwRead : kMmcRwWrite;
    if (svc->Invoke(mmc->session, mmc->entry, BlockArgs(mmc, rw, blkcnt, buf)).ok()) {
      ++ok;
    }
  }
  if (ok != kSelectionInvokes) {
    std::fprintf(stderr, "selection phase: %d/%d invokes failed\n", kSelectionInvokes - ok,
                 kSelectionInvokes);
  }
  return static_cast<double>(svc->store().candidates_scanned() - scans0) /
         kSelectionInvokes;
}

// Histograms are process-global and not copyable; the amortization phase also
// drives a service, so snapshot the mixed-phase values before it runs.
struct HistSnap {
  uint64_t count = 0;
  double mean = 0;
  uint64_t p50 = 0, p90 = 0, p99 = 0, max = 0;
};

HistSnap Snap(const Histogram& h) {
  return HistSnap{h.count(), h.mean(), h.Percentile(50), h.Percentile(90), h.Percentile(99),
                  h.max()};
}

void PrintHistJson(FILE* f, const char* key, const HistSnap& h, const char* suffix) {
  std::fprintf(f,
               "  \"%s\": {\"count\": %llu, \"mean\": %.1f, \"p50\": %llu, "
               "\"p90\": %llu, \"p99\": %llu, \"max\": %llu}%s\n",
               key, static_cast<unsigned long long>(h.count), h.mean,
               static_cast<unsigned long long>(h.p50),
               static_cast<unsigned long long>(h.p90),
               static_cast<unsigned long long>(h.p99),
               static_cast<unsigned long long>(h.max), suffix);
}

// ---- Phase 4: world-switch amortization across commands-per-doorbell ----

// Equal digests <=> byte-identical read-back data across configurations.
uint64_t Fnv1a(uint64_t h, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
constexpr uint64_t kFnvSeed = 1469598103934665603ull;

struct AmortResult {
  bool ring = false;          // ring doorbells vs plain Invoke (pre-ring path)
  size_t batch = 1;           // commands per doorbell
  uint64_t failures = 0;
  uint64_t world_switches = 0;
  double switches_per_cmd = 0;
  double us_per_cmd = 0;      // virtual model time per command
  uint64_t wait_p50 = 0;      // in-batch queue wait (ring.queue_wait_us)
  uint64_t wait_p99 = 0;
  uint64_t digest = 0;        // FNV-1a over every read command's buffer
};

// The fixed stream: command i writes a seeded pattern (even i) or reads the
// block pair written by command i-1 (odd i), 8 blocks per command. Within one
// doorbell batch the service executes in push order, so a read always lands
// after its write.
ReplayArgs AmortArgs(size_t i, std::vector<uint8_t>* pool) {
  uint8_t* slice = pool->data() + i * kAmortBytes;
  bool write = (i % 2) == 0;
  if (write) {
    std::vector<uint8_t> pat = PatternBuf(kAmortBytes, 0x1000 + i);
    std::memcpy(slice, pat.data(), kAmortBytes);
  } else {
    std::memset(slice, 0, kAmortBytes);
  }
  ReplayArgs args;
  args.scalars = {{"rw", write ? kMmcRwWrite : kMmcRwRead},
                  {"blkcnt", kAmortBlocks},
                  {"blkid", 2048 + (i / 2) * kAmortBlocks},
                  {"flag", 0}};
  args.buffers["buf"] = BufferView{slice, kAmortBytes};
  return args;
}

AmortResult RunAmortConfig(const std::vector<uint8_t>& mmc_pkg, size_t batch, bool ring) {
  AmortResult res;
  res.ring = ring;
  res.batch = batch;
  TestbedOptions opts;
  opts.secure_io = true;
  opts.probe_drivers = false;
  Rpi3Testbed tb{opts};
  ReplayServiceConfig cfg;
  cfg.ring_depth = kAmortCommands;  // the sweep never backpressures
  ReplayService svc(&tb.tee(), kDeveloperKey, cfg);
  if (!svc.RegisterDriverlet(mmc_pkg.data(), mmc_pkg.size()).ok()) {
    res.failures = kAmortCommands;
    return res;
  }
  Result<SessionId> sid = svc.OpenSession("mmc");
  if (!sid.ok()) {
    res.failures = kAmortCommands;
    return res;
  }
  Histogram& wait = Telemetry::Get().metrics().histogram("ring.queue_wait_us");
  wait.Reset();  // isolate this configuration's in-batch waits

  std::vector<uint8_t> pool(kAmortCommands * kAmortBytes, 0);
  uint64_t sw0 = tb.tee().world_switches();
  uint64_t t0 = tb.clock().now_us();
  size_t done = 0;
  while (done < kAmortCommands) {
    size_t n = batch < kAmortCommands - done ? batch : kAmortCommands - done;
    if (ring) {
      for (size_t j = 0; j < n; ++j) {
        if (!svc.RingPush(*sid, kMmcEntry, AmortArgs(done + j, &pool)).ok()) {
          ++res.failures;
        }
      }
      Result<size_t> ran = svc.RingDoorbell(*sid);
      if (!ran.ok() || *ran != n) {
        ++res.failures;
      }
      for (size_t j = 0; j < n; ++j) {
        Result<RingCompletion> c = svc.RingPop(*sid);
        if (!c.ok() || !c->result.ok()) {
          ++res.failures;
        }
      }
    } else {
      // Pre-ring shape: one synchronous Invoke per command.
      for (size_t j = 0; j < n; ++j) {
        if (!svc.Invoke(*sid, kMmcEntry, AmortArgs(done + j, &pool)).ok()) {
          ++res.failures;
        }
      }
    }
    done += n;
  }
  res.world_switches = tb.tee().world_switches() - sw0;
  res.switches_per_cmd = static_cast<double>(res.world_switches) / kAmortCommands;
  res.us_per_cmd = static_cast<double>(tb.clock().now_us() - t0) / kAmortCommands;
  res.wait_p50 = wait.Percentile(50);
  res.wait_p99 = wait.Percentile(99);
  res.digest = kFnvSeed;
  for (size_t i = 1; i < kAmortCommands; i += 2) {
    res.digest = Fnv1a(res.digest, pool.data() + i * kAmortBytes, kAmortBytes);
  }
  return res;
}

// ---- Phase 5: mixed device-class profile (db + camera + TPM attest + crypto) ----
//
// Each leg's step is a deterministic function of the round index alone, so the
// same schedule can run interleaved through one service (four sessions, four
// classes) and sequentially on a fresh machine per class; the per-leg digests
// over every read-back byte must agree exactly.

constexpr int kProfileRounds = 32;

struct ProfileLeg {
  uint64_t digest = kFnvSeed;
  uint64_t failures = 0;
  uint64_t invokes = 0;  // session-stat invokes (mixed run only)
};

void FoldU64(ProfileLeg* leg, uint64_t v) {
  uint8_t b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  leg->digest = Fnv1a(leg->digest, b, sizeof b);
}

// Insert/lookup/update/scan mix against MiniDb on the MMC driverlet; folds
// every looked-up payload.
void DbProfileStep(MiniDb* db, int round, ProfileLeg* leg) {
  uint64_t key = 5000 + static_cast<uint64_t>(round);
  std::vector<uint8_t> payload = PatternBuf(120, 0x9a00 + static_cast<uint64_t>(round));
  if (!Ok(db->Insert(key, payload.data(), payload.size()))) {
    ++leg->failures;
  }
  Result<std::vector<uint8_t>> got = db->Lookup(key);
  if (!got.ok()) {
    ++leg->failures;
  } else {
    leg->digest = Fnv1a(leg->digest, got->data(), got->size());
  }
  if (round >= 4 && (round % 4) == 0) {
    uint64_t old_key = key - 4;
    std::vector<uint8_t> upd = PatternBuf(64, 0x9b00 + static_cast<uint64_t>(round));
    if (!Ok(db->Update(old_key, upd.data(), upd.size()))) {
      ++leg->failures;
    }
    Result<std::vector<uint8_t>> back = db->Lookup(old_key);
    if (!back.ok()) {
      ++leg->failures;
    } else {
      leg->digest = Fnv1a(leg->digest, back->data(), back->size());
    }
  }
  if ((round % 8) == 7) {
    Result<size_t> n = db->Scan(5000, key);
    if (!n.ok()) {
      ++leg->failures;
    } else {
      FoldU64(leg, *n);
    }
    if (!Ok(db->Commit())) {
      ++leg->failures;
    }
  }
}

// One 720p capture; folds the reported image size and the frame bytes.
void CameraProfileStep(ReplayService* svc, SessionId sid, ProfileLeg* leg) {
  std::vector<uint8_t> buf(Vc4Firmware::FrameBytes(1440) + 4096, 0);
  std::vector<uint8_t> img_size(4, 0);
  ReplayArgs args;
  args.scalars = {{"frame", 1}, {"resolution", 720}, {"buf_size", buf.size()}};
  args.buffers["buf"] = BufferView{buf.data(), buf.size()};
  args.buffers["img_size"] = BufferView{img_size.data(), img_size.size()};
  if (!svc->Invoke(sid, kCameraEntry, args).ok()) {
    ++leg->failures;
    return;
  }
  size_t n = static_cast<size_t>(img_size[0]) | static_cast<size_t>(img_size[1]) << 8 |
             static_cast<size_t>(img_size[2]) << 16 | static_cast<size_t>(img_size[3]) << 24;
  if (n > buf.size()) {
    n = buf.size();
  }
  leg->digest = Fnv1a(leg->digest, img_size.data(), img_size.size());
  leg->digest = Fnv1a(leg->digest, buf.data(), n);
}

// PCR extend + read + get-random every round; quote + service attest every
// 4th. The DRBG and PCR bank are device NV state, so the byte streams are a
// pure function of this session's command order.
void FtpmProfileStep(ReplayService* svc, SessionId sid, int round, ProfileLeg* leg) {
  std::vector<uint8_t> rsp(kFtpmMaxRandom, 0);
  auto exec = [&](uint64_t ord, uint64_t arg, const std::vector<uint8_t>& req) {
    std::memset(rsp.data(), 0, rsp.size());
    ReplayArgs args;
    args.scalars = {{"ord", ord}, {"arg", arg}};
    args.ro_buffers["req"] = ConstBufferView{req.data(), req.size()};
    args.buffers["rsp"] = BufferView{rsp.data(), rsp.size()};
    return svc->Invoke(sid, kFtpmEntry, args);
  };
  uint64_t pcr = static_cast<uint64_t>(round) % kFtpmPcrCount;
  std::vector<uint8_t> digest = PatternBuf(kFtpmPcrBytes, 0x7a00 + static_cast<uint64_t>(round));
  if (!exec(kFtpmOrdPcrExtend, pcr, digest).ok()) {
    ++leg->failures;
  }
  if (!exec(kFtpmOrdPcrRead, pcr, digest).ok()) {
    ++leg->failures;
  } else {
    leg->digest = Fnv1a(leg->digest, rsp.data(), kFtpmPcrBytes);
  }
  uint64_t nbytes = 32 + static_cast<uint64_t>(round % 8) * 32;
  if (!exec(kFtpmOrdGetRandom, nbytes, digest).ok()) {
    ++leg->failures;
  } else {
    leg->digest = Fnv1a(leg->digest, rsp.data(), nbytes);
  }
  if ((round % 4) == 3) {
    std::vector<uint8_t> nonce = PatternBuf(kFtpmPcrBytes, 0x7b00 + static_cast<uint64_t>(round));
    if (!exec(kFtpmOrdQuote, 0x3, nonce).ok()) {
      ++leg->failures;
    } else {
      leg->digest = Fnv1a(leg->digest, rsp.data(), 48);  // nonce + PCR binding
    }
    // Service-level attestation rides along: the session PCR chain is a pure
    // function of this session's completed invokes, so it digests stably too.
    Result<AttestationQuote> q = svc->Attest(sid, "mix" + std::to_string(round));
    if (!q.ok() || !VerifyQuote(*q, kDeveloperKey)) {
      ++leg->failures;
    } else {
      leg->digest = Fnv1a(
          leg->digest, reinterpret_cast<const uint8_t*>(q->session_measurement.data()),
          q->session_measurement.size());
      FoldU64(leg, q->invokes);
    }
  }
}

// Encrypt → decrypt round trip at a rotating covered length; digest job every
// 3rd round. Ciphertext folds in (deterministic keystream), and a silent
// plaintext mismatch counts as a failure just like in the fault matrix.
void CryptoProfileStep(ReplayService* svc, SessionId sid, int round, ProfileLeg* leg) {
  uint64_t key = 0xc0ffee00 + static_cast<uint64_t>(round % 16);
  size_t len = kCryptoChunkBytes * (1 + static_cast<size_t>(round % 4));
  std::vector<uint8_t> pt = PatternBuf(len, 0x5e00 + static_cast<uint64_t>(round));
  std::vector<uint8_t> ct(len, 0);
  ReplayArgs eargs;
  eargs.scalars = {{"op", kCaOpEncrypt}, {"key", key}, {"len", len}};
  eargs.ro_buffers["buf"] = ConstBufferView{pt.data(), pt.size()};
  eargs.buffers["out"] = BufferView{ct.data(), ct.size()};
  if (!svc->Invoke(sid, kCryptoaccEntry, eargs).ok()) {
    ++leg->failures;
    return;
  }
  leg->digest = Fnv1a(leg->digest, ct.data(), ct.size());
  std::vector<uint8_t> rt(len, 0);
  ReplayArgs dargs;
  dargs.scalars = {{"op", kCaOpDecrypt}, {"key", key}, {"len", len}};
  dargs.ro_buffers["buf"] = ConstBufferView{ct.data(), ct.size()};
  dargs.buffers["out"] = BufferView{rt.data(), rt.size()};
  if (!svc->Invoke(sid, kCryptoaccEntry, dargs).ok()) {
    ++leg->failures;
    return;
  }
  if (rt != pt) {
    ++leg->failures;
  }
  if ((round % 3) == 0) {
    std::vector<uint8_t> out(kCaDigestBytes, 0);
    ReplayArgs gargs;
    gargs.scalars = {{"op", kCaOpDigest}, {"key", key}, {"len", kCryptoChunkBytes}};
    gargs.ro_buffers["buf"] = ConstBufferView{pt.data(), kCryptoChunkBytes};
    gargs.buffers["out"] = BufferView{out.data(), out.size()};
    if (!svc->Invoke(sid, kCryptoaccEntry, gargs).ok()) {
      ++leg->failures;
    } else {
      leg->digest = Fnv1a(leg->digest, out.data(), out.size());
    }
  }
}

struct ProfileRun {
  ProfileLeg db, camera, ftpm, crypto;
  double simulated_s = 0;
};

ProfileRun RunMixedProfile(const std::vector<uint8_t>& mmc_pkg,
                           const std::vector<uint8_t>& cam_pkg,
                           const std::vector<uint8_t>& ftpm_pkg,
                           const std::vector<uint8_t>& ca_pkg) {
  ProfileRun run;
  TestbedOptions opts;
  opts.secure_io = true;
  opts.probe_drivers = false;
  Rpi3Testbed tb{opts};
  ReplayServiceConfig cfg;
  cfg.max_sessions = 8;
  ReplayService svc(&tb.tee(), kDeveloperKey, cfg);
  for (const std::vector<uint8_t>* pkg : {&mmc_pkg, &cam_pkg, &ftpm_pkg, &ca_pkg}) {
    if (!svc.RegisterDriverlet(pkg->data(), pkg->size()).ok()) {
      run.db.failures = run.camera.failures = run.ftpm.failures = run.crypto.failures = 1;
      return run;
    }
  }
  Result<SessionId> db_sid = svc.OpenSession("mmc");
  Result<SessionId> cam_sid = svc.OpenSession("camera");
  Result<SessionId> tpm_sid = svc.OpenSession("ftpm");
  Result<SessionId> ca_sid = svc.OpenSession("cryptoacc");
  if (!db_sid.ok() || !cam_sid.ok() || !tpm_sid.ok() || !ca_sid.ok()) {
    run.db.failures = run.camera.failures = run.ftpm.failures = run.crypto.failures = 1;
    return run;
  }
  ReplayBlockDevice bdev(&svc, *db_sid, kMmcEntry);
  MiniDb db(&bdev);
  if (!Ok(db.Open())) {
    ++run.db.failures;
  }
  uint64_t t0 = tb.clock().now_us();
  for (int round = 0; round < kProfileRounds; ++round) {
    DbProfileStep(&db, round, &run.db);
    CryptoProfileStep(&svc, *ca_sid, round, &run.crypto);
    FtpmProfileStep(&svc, *tpm_sid, round, &run.ftpm);
    if ((round % 4) == 0) {
      CameraProfileStep(&svc, *cam_sid, &run.camera);
    }
  }
  if (!Ok(db.Commit())) {
    ++run.db.failures;
  }
  run.simulated_s = static_cast<double>(tb.clock().now_us() - t0) / 1e6;
  ProfileLeg* legs[] = {&run.db, &run.camera, &run.ftpm, &run.crypto};
  SessionId sids[] = {*db_sid, *cam_sid, *tpm_sid, *ca_sid};
  for (int i = 0; i < 4; ++i) {
    Result<SessionStats> st = svc.Stats(sids[i]);
    if (st.ok()) {
      legs[i]->invokes = st->invokes;
    }
  }
  return run;
}

// The same per-leg schedule, alone on a fresh machine: the isolation baseline.
ProfileLeg RunSequentialLeg(char which, const std::vector<uint8_t>& pkg) {
  ProfileLeg leg;
  TestbedOptions opts;
  opts.secure_io = true;
  opts.probe_drivers = false;
  Rpi3Testbed tb{opts};
  ReplayServiceConfig cfg;
  ReplayService svc(&tb.tee(), kDeveloperKey, cfg);
  if (!svc.RegisterDriverlet(pkg.data(), pkg.size()).ok()) {
    leg.failures = 1;
    return leg;
  }
  const char* name = which == 'd'   ? "mmc"
                     : which == 'c' ? "camera"
                     : which == 't' ? "ftpm"
                                    : "cryptoacc";
  Result<SessionId> sid = svc.OpenSession(name);
  if (!sid.ok()) {
    leg.failures = 1;
    return leg;
  }
  if (which == 'd') {
    ReplayBlockDevice bdev(&svc, *sid, kMmcEntry);
    MiniDb db(&bdev);
    if (!Ok(db.Open())) {
      ++leg.failures;
    }
    for (int round = 0; round < kProfileRounds; ++round) {
      DbProfileStep(&db, round, &leg);
    }
    if (!Ok(db.Commit())) {
      ++leg.failures;
    }
    return leg;
  }
  for (int round = 0; round < kProfileRounds; ++round) {
    if (which == 'c' && (round % 4) == 0) {
      CameraProfileStep(&svc, *sid, &leg);
    } else if (which == 't') {
      FtpmProfileStep(&svc, *sid, round, &leg);
    } else if (which == 'a') {
      CryptoProfileStep(&svc, *sid, round, &leg);
    }
  }
  return leg;
}

}  // namespace
}  // namespace dlt

int main(int argc, char** argv) {
  using namespace dlt;
  Telemetry::Get().Enable();  // metrics sourced from src/obs (virtual time)

  // --batch N[,N...] selects the commands-per-doorbell sweep (default 1,8,64).
  std::vector<size_t> batches = {1, 8, 64};
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    std::string list;
    if (arg == "--batch" && a + 1 < argc) {
      list = argv[++a];
    } else if (arg.rfind("--batch=", 0) == 0) {
      list = arg.substr(8);
    } else {
      std::fprintf(stderr, "usage: %s [--batch N[,N...]]\n", argv[0]);
      return 2;
    }
    batches.clear();
    for (size_t pos = 0; pos < list.size();) {
      size_t comma = list.find(',', pos);
      if (comma == std::string::npos) {
        comma = list.size();
      }
      size_t b = static_cast<size_t>(std::strtoull(list.c_str() + pos, nullptr, 10));
      if (b == 0 || b > kAmortCommands) {
        std::fprintf(stderr, "batch sizes must be in [1, %zu]\n", kAmortCommands);
        return 2;
      }
      batches.push_back(b);
      pos = comma + 1;
    }
    if (batches.empty()) {
      std::fprintf(stderr, "--batch needs at least one size\n");
      return 2;
    }
  }

  std::printf("Session-oriented replay service: mixed MMC + USB + camera traffic\n\n");
  std::vector<uint8_t> mmc_pkg = BuildMmcPackage();
  std::vector<uint8_t> usb_pkg = BuildUsbPackage();
  std::vector<uint8_t> cam_pkg = BuildCameraPackage();
  std::vector<uint8_t> disp_pkg = BuildDisplayPackage();
  std::vector<uint8_t> touch_pkg = BuildTouchPackage();
  std::vector<uint8_t> ftpm_pkg = BuildFtpmPackage();
  std::vector<uint8_t> ca_pkg = BuildCryptoaccPackage();
  if (mmc_pkg.empty() || usb_pkg.empty() || cam_pkg.empty() || disp_pkg.empty() ||
      touch_pkg.empty() || ftpm_pkg.empty() || ca_pkg.empty()) {
    std::fprintf(stderr, "record campaigns failed\n");
    return 1;
  }

  TestbedOptions opts;
  opts.secure_io = true;
  opts.probe_drivers = false;
  Rpi3Testbed tb{opts};
  ReplayServiceConfig cfg;
  cfg.max_sessions = 8;
  ReplayService svc(&tb.tee(), kDeveloperKey, cfg);

  // ---- Phase 1: MMC alone ----
  if (!svc.RegisterDriverlet(mmc_pkg.data(), mmc_pkg.size()).ok()) {
    return 1;
  }
  Result<SessionId> mmc_sid = svc.OpenSession("mmc");
  if (!mmc_sid.ok()) {
    return 1;
  }
  BlockClient mmc{*mmc_sid, kMmcEntry};
  std::vector<uint8_t> block_buf(256 * 512, 0x5c);
  size_t pop1 = svc.store().template_count();
  double scans1 = SelectionPhase(&svc, &mmc, &block_buf);

  // ---- Phase 2: population more than doubles; same request stream ----
  if (!svc.RegisterDriverlet(usb_pkg.data(), usb_pkg.size()).ok() ||
      !svc.RegisterDriverlet(cam_pkg.data(), cam_pkg.size()).ok() ||
      !svc.RegisterDriverlet(disp_pkg.data(), disp_pkg.size()).ok() ||
      !svc.RegisterDriverlet(touch_pkg.data(), touch_pkg.size()).ok()) {
    return 1;
  }
  size_t pop2 = svc.store().template_count();
  double scans2 = SelectionPhase(&svc, &mmc, &block_buf);
  std::printf("selection cost: %.1f candidates/invoke over %zu templates, "
              "%.1f over %zu templates (flat = one slot scanned)\n",
              scans1, pop1, scans2, pop2);

  // ---- Phase 3: mixed traffic through 4 sessions ----
  Result<SessionId> mmc2_sid = svc.OpenSession("mmc");
  Result<SessionId> usb_sid = svc.OpenSession("usb");
  Result<SessionId> cam_sid = svc.OpenSession("camera");
  if (!mmc2_sid.ok() || !usb_sid.ok() || !cam_sid.ok()) {
    return 1;
  }
  BlockClient mmc2{*mmc2_sid, kMmcEntry};
  BlockClient usb{*usb_sid, kUsbEntry};
  std::vector<uint8_t> usb_buf(256 * 512, 0x33);
  std::vector<uint8_t> cam_buf(Vc4Firmware::FrameBytes(1440) + 4096, 0);
  std::vector<uint8_t> img_size(4, 0);

  uint64_t t0 = tb.clock().now_us();
  uint64_t mixed_failures = 0;
  for (int round = 0; round < kMixedRounds; ++round) {
    // Two block clients alternate direct invokes with their session rings:
    // commands pushed here run at the doorbells after the other clients.
    const bool queued = (round % 2) == 0;
    if (queued) {
      if (!svc.RingPush(mmc.session, kMmcEntry, BlockArgs(&mmc, kMmcRwWrite, 32, &block_buf))
               .ok()) {
        ++mixed_failures;
      }
      if (!svc.RingPush(usb.session, kUsbEntry, BlockArgs(&usb, kMmcRwWrite, 8, &usb_buf))
               .ok()) {
        ++mixed_failures;
      }
    } else {
      if (!svc.Invoke(mmc.session, kMmcEntry, BlockArgs(&mmc, kMmcRwRead, 32, &block_buf))
               .ok()) {
        ++mixed_failures;
      }
      if (!svc.Invoke(usb.session, kUsbEntry, BlockArgs(&usb, kMmcRwRead, 8, &usb_buf))
               .ok()) {
        ++mixed_failures;
      }
    }
    // Second MMC client: single-block metadata-style IO.
    if (!svc.Invoke(mmc2.session, kMmcEntry, BlockArgs(&mmc2, kMmcRwWrite, 1, &block_buf))
             .ok()) {
      ++mixed_failures;
    }
    // Camera one-shot every 4th round (captures dominate virtual time).
    if ((round % 4) == 0) {
      ReplayArgs cam_args;
      cam_args.scalars = {{"frame", 1}, {"resolution", 720}, {"buf_size", cam_buf.size()}};
      cam_args.buffers["buf"] = BufferView{cam_buf.data(), cam_buf.size()};
      cam_args.buffers["img_size"] = BufferView{img_size.data(), img_size.size()};
      if (!svc.Invoke(*cam_sid, kCameraEntry, cam_args).ok()) {
        ++mixed_failures;
      }
    }
    if (queued) {
      for (SessionId sid : {mmc.session, usb.session}) {
        Result<size_t> ran = svc.RingDoorbell(sid);
        Result<RingCompletion> done = svc.RingPop(sid);
        if (!ran.ok() || !done.ok() || !done->result.ok()) {
          ++mixed_failures;
        }
      }
    }
  }
  double elapsed_s = static_cast<double>(tb.clock().now_us() - t0) / 1e6;

  MetricsRegistry& m = Telemetry::Get().metrics();
  uint64_t ops = m.counter("service.invokes").value();
  std::printf("mixed phase: %llu invokes over 4 sessions in %.2f simulated s "
              "(%llu failures)\n",
              static_cast<unsigned long long>(ops), elapsed_s,
              static_cast<unsigned long long>(mixed_failures));
  std::printf("sessions open=%zu, driverlets=%zu\n", svc.open_sessions(),
              svc.registered_driverlets());
  for (SessionId sid : {mmc.session, mmc2.session, usb.session, *cam_sid}) {
    Result<SessionStats> st = svc.Stats(sid);
    if (st.ok()) {
      std::printf("  session %llu (%s): invokes=%llu failures=%llu events=%llu "
                  "resets=%llu queued=%llu\n",
                  static_cast<unsigned long long>(sid), st->driverlet.c_str(),
                  static_cast<unsigned long long>(st->invokes),
                  static_cast<unsigned long long>(st->failures),
                  static_cast<unsigned long long>(st->events_executed),
                  static_cast<unsigned long long>(st->resets),
                  static_cast<unsigned long long>(st->submitted));
    }
  }

  // Snapshot the mixed-phase metrics before the amortization phase drives
  // more service traffic through the same process-global registry.
  HistSnap invoke_snap = Snap(m.histogram("service.invoke_us"));
  uint64_t inv_mmc = m.counter("service.invokes.mmc").value();
  uint64_t inv_usb = m.counter("service.invokes.usb").value();
  uint64_t inv_cam = m.counter("service.invokes.camera").value();

  // ---- Phase 4: switch amortization sweep ----
  std::printf("\nswitch amortization (%zu MMC commands, 2 switches per doorbell):\n",
              kAmortCommands);
  std::vector<AmortResult> amort;
  amort.push_back(RunAmortConfig(mmc_pkg, 1, /*ring=*/false));  // pre-ring baseline
  for (size_t b : batches) {
    amort.push_back(RunAmortConfig(mmc_pkg, b, /*ring=*/true));
  }
  bool digest_match = true;
  bool amort_ok = true;
  const AmortResult& direct = amort[0];
  for (const AmortResult& r : amort) {
    std::printf("  %-6s batch=%-3zu switches/cmd=%.4f us/cmd=%-9.2f wait p50/p99=%llu/%llu"
                " digest=%016llx%s\n",
                r.ring ? "ring" : "direct", r.batch, r.switches_per_cmd, r.us_per_cmd,
                static_cast<unsigned long long>(r.wait_p50),
                static_cast<unsigned long long>(r.wait_p99),
                static_cast<unsigned long long>(r.digest),
                r.failures != 0 ? " FAILURES" : "");
    if (r.failures != 0) {
      std::fprintf(stderr, "amortization: %llu command failures at batch %zu\n",
                   static_cast<unsigned long long>(r.failures), r.batch);
      amort_ok = false;
    }
    if (r.digest != direct.digest) {
      digest_match = false;  // batched replay must not change a single byte
    }
    // Switch count must amortize exactly: two per doorbell, ceil(M/B) doorbells.
    uint64_t doorbells = (kAmortCommands + r.batch - 1) / r.batch;
    if (r.world_switches != 2 * doorbells) {
      std::fprintf(stderr, "amortization: batch %zu charged %llu switches, expected %llu\n",
                   r.batch, static_cast<unsigned long long>(r.world_switches),
                   static_cast<unsigned long long>(2 * doorbells));
      amort_ok = false;
    }
    // Any real batching must beat the unbatched per-command model time.
    if (r.batch > 1 && r.us_per_cmd >= direct.us_per_cmd) {
      std::fprintf(stderr, "amortization: batch %zu us/cmd %.2f not below unbatched %.2f\n",
                   r.batch, r.us_per_cmd, direct.us_per_cmd);
      amort_ok = false;
    }
  }
  if (!digest_match) {
    std::fprintf(stderr, "amortization: read-back digests diverge across batch sizes\n");
  }

  // ---- Phase 5: mixed device-class profile vs sequential baselines ----
  std::printf("\ndevice-class profile (db + camera + TPM attest + crypto), %d rounds:\n",
              kProfileRounds);
  ProfileRun mix = RunMixedProfile(mmc_pkg, cam_pkg, ftpm_pkg, ca_pkg);
  struct LegRow {
    const char* name;
    char tag;
    const std::vector<uint8_t>* pkg;
    const ProfileLeg* mixed;
    ProfileLeg sequential;
  } legs[] = {{"db", 'd', &mmc_pkg, &mix.db, {}},
              {"camera", 'c', &cam_pkg, &mix.camera, {}},
              {"ftpm", 't', &ftpm_pkg, &mix.ftpm, {}},
              {"cryptoacc", 'a', &ca_pkg, &mix.crypto, {}}};
  bool profile_match = true;
  uint64_t profile_failures = 0;
  for (LegRow& l : legs) {
    l.sequential = RunSequentialLeg(l.tag, *l.pkg);
    bool match = l.mixed->digest == l.sequential.digest;
    profile_match &= match;
    profile_failures += l.mixed->failures + l.sequential.failures;
    std::printf("  %-9s invokes=%-4llu digest=%016llx sequential=%016llx %s\n", l.name,
                static_cast<unsigned long long>(l.mixed->invokes),
                static_cast<unsigned long long>(l.mixed->digest),
                static_cast<unsigned long long>(l.sequential.digest),
                match ? "MATCH" : "DIVERGED");
  }
  std::printf("  %.2f simulated s, %llu failures, isolation %s\n", mix.simulated_s,
              static_cast<unsigned long long>(profile_failures),
              profile_match ? "holds" : "BROKEN");
  if (!profile_match || profile_failures != 0) {
    std::fprintf(stderr, "profile: concurrent digests diverged from sequential baselines\n");
  }

  // ---- BENCH_replay_service.json: the perf trajectory for future PRs ----
  FILE* f = std::fopen("BENCH_replay_service.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_replay_service.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"ops\": %llu,\n", static_cast<unsigned long long>(ops));
  std::fprintf(f, "  \"failures\": %llu,\n",
               static_cast<unsigned long long>(mixed_failures));
  std::fprintf(f, "  \"simulated_seconds\": %.3f,\n", elapsed_s);
  PrintHistJson(f, "invoke_latency_us", invoke_snap, ",");
  std::fprintf(f, "  \"per_driverlet_invokes\": {\"mmc\": %llu, \"usb\": %llu, \"camera\": %llu},\n",
               static_cast<unsigned long long>(inv_mmc),
               static_cast<unsigned long long>(inv_usb),
               static_cast<unsigned long long>(inv_cam));
  std::fprintf(f,
               "  \"selection\": {\"templates_small\": %zu, \"scans_per_invoke_small\": %.2f, "
               "\"templates_large\": %zu, \"scans_per_invoke_large\": %.2f},\n",
               pop1, scans1, pop2, scans2);
  std::fprintf(f, "  \"amortization\": [\n");
  for (size_t i = 0; i < amort.size(); ++i) {
    const AmortResult& r = amort[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"batch\": %zu, \"commands\": %zu, "
                 "\"world_switches\": %llu, \"switches_per_command\": %.4f, "
                 "\"model_us_per_command\": %.2f, \"ring_wait_p50_us\": %llu, "
                 "\"ring_wait_p99_us\": %llu, \"digest\": \"%016llx\"}%s\n",
                 r.ring ? "ring" : "direct", r.batch, kAmortCommands,
                 static_cast<unsigned long long>(r.world_switches), r.switches_per_cmd,
                 r.us_per_cmd, static_cast<unsigned long long>(r.wait_p50),
                 static_cast<unsigned long long>(r.wait_p99),
                 static_cast<unsigned long long>(r.digest),
                 i + 1 < amort.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"amortization_digest_match\": %s,\n", digest_match ? "true" : "false");
  std::fprintf(f, "  \"mixed_profile\": {\n");
  std::fprintf(f, "    \"rounds\": %d,\n", kProfileRounds);
  std::fprintf(f, "    \"simulated_seconds\": %.3f,\n", mix.simulated_s);
  std::fprintf(f, "    \"failures\": %llu,\n",
               static_cast<unsigned long long>(profile_failures));
  for (const LegRow& l : legs) {
    std::fprintf(f,
                 "    \"%s\": {\"invokes\": %llu, \"digest\": \"%016llx\", "
                 "\"sequential_digest\": \"%016llx\", \"match\": %s},\n",
                 l.name, static_cast<unsigned long long>(l.mixed->invokes),
                 static_cast<unsigned long long>(l.mixed->digest),
                 static_cast<unsigned long long>(l.sequential.digest),
                 l.mixed->digest == l.sequential.digest ? "true" : "false");
  }
  std::fprintf(f, "    \"digest_match\": %s\n", profile_match ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_replay_service.json\n");
  return (digest_match && amort_ok && profile_match && profile_failures == 0) ? 0 : 1;
}
