#include "src/check/fuzz.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "src/check/template_gen.h"
#include "src/core/package.h"
#include "src/dev/cryptoacc/cryptoacc_device.h"
#include "src/dev/ftpm/ftpm_device.h"
#include "src/dev/vc4/vc4_firmware.h"
#include "src/drv/bcm_sdhost_driver.h"
#include "src/drv/cryptoacc_driver.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/obs/telemetry.h"
#include "src/record/package_writer.h"
#include "src/record/quote.h"
#include "src/record/serialize_text.h"
#include "src/workload/deploy_util.h"

namespace dlt {

namespace {

constexpr char kProgramHeader[] = "driverlet-boundary v1";
constexpr char kReproHeader[] = "driverlet-boundary-repro v1";
constexpr size_t kSlots = 4;
constexpr int kCurveStride = 16;

struct OpName {
  BoundaryOp op;
  const char* name;
};

constexpr OpName kOpNames[] = {
    {BoundaryOp::kOpen, "open"},         {BoundaryOp::kClose, "close"},
    {BoundaryOp::kInvoke, "invoke"},     {BoundaryOp::kRingPush, "push"},
    {BoundaryOp::kDoorbell, "doorbell"}, {BoundaryOp::kRingPop, "pop"},
    {BoundaryOp::kAttest, "attest"},     {BoundaryOp::kFaultArm, "fault"},
    {BoundaryOp::kFaultDisarm, "disarm"}, {BoundaryOp::kRegisterPackage, "register"},
};
constexpr size_t kOpCount = sizeof(kOpNames) / sizeof(kOpNames[0]);

const char* NameOf(BoundaryOp op) {
  for (const OpName& n : kOpNames) {
    if (n.op == op) return n.name;
  }
  return "?";
}

// SplitMix64: the mutation engine's deterministic draw stream.
struct FuzzRng {
  uint64_t state;
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t Log2Bucket(uint64_t v) {
  uint64_t b = 0;
  while (v > 1) {
    v >>= 1;
    ++b;
  }
  return b;
}

// ---------------------------------------------------------------------------
// Program execution
// ---------------------------------------------------------------------------

// The fuzzer's class table IS the registered-class table: operands are taken
// modulo its size, so a class added to RegisteredDriverletClasses() joins the
// fuzzing surface without touching this file.
size_t NumClasses() { return RegisteredDriverletClasses().size(); }

const Result<DriverletPackage>& OpenedPackage(size_t cls) {
  // Recording a campaign per class is the expensive part, and verifying,
  // decompressing and parsing its sealed bytes the next: record, seal and open
  // once per process, and register the parsed package in every fuzz run. The
  // register op keeps the sealed path under mutation.
  const std::vector<DriverletClassSpec>& classes = RegisteredDriverletClasses();
  static std::vector<const Result<DriverletPackage>*>* pkgs =
      new std::vector<const Result<DriverletPackage>*>(classes.size(), nullptr);
  size_t i = cls % classes.size();
  if ((*pkgs)[i] == nullptr) {
    std::vector<uint8_t> sealed = classes[i].build_package();
    (*pkgs)[i] = new Result<DriverletPackage>(
        OpenPackage(sealed.data(), sealed.size(), kDeveloperKey));
  }
  return *(*pkgs)[i];
}

// The register op's package corpus: two tiny generated templates under the
// reserved driverlet name "fzz", built once per process. Generated templates
// touch the gen device ids (DMA 0 + device 1), both TEE-mapped on the
// deployment testbed, so the intact seal can actually register.
const DriverletPackage& FzzPackage() {
  static const DriverletPackage* pkg = [] {
    auto* p = new DriverletPackage;
    p->driverlet = "fzz";
    for (uint64_t s = 0; s < 2; ++s) {
      GenConfig gc;
      gc.seed = 0x5a + s;
      gc.min_blocks = 1;
      gc.max_blocks = 2;
      GeneratedCase c = GenerateCase(gc);
      c.tpl.name = "fzz_" + std::to_string(s);
      c.tpl.entry = "replay_fzz";
      p->templates.push_back(std::move(c.tpl));
    }
    return p;
  }();
  return *pkg;
}

// Pre-seal serialized payload — the bytes SealPackageRaw wraps, and the
// mutation substrate for the re-sign class.
const std::vector<uint8_t>& FzzPayload() {
  static const std::vector<uint8_t>* payload =
      new std::vector<uint8_t>(TemplatesToBinary(FzzPackage().templates));
  return *payload;
}

const std::vector<uint8_t>& FzzSealed() {
  static const std::vector<uint8_t>* sealed =
      new std::vector<uint8_t>(SealPackageRaw("fzz", FzzPayload(), kDeveloperKey));
  return *sealed;
}

// Deterministic mutant of the sealed "fzz" package. c%4 selects the class:
//   0  intact seal — the only class RegisterDriverlet may accept;
//   1  post-seal bit flips — HMAC breaks, the parser must answer kCorrupt;
//   2  truncation — framing/HMAC failure, kCorrupt;
//   3  payload mutated BEFORE sealing, then re-signed — a valid signature
//      over a garbage interior, so the deserializer itself is on trial.
std::vector<uint8_t> MutantPackageBytes(uint64_t salt, uint64_t c) {
  uint64_t m = c % 4;
  FuzzRng rng{(salt * 131 + c) * 0x2545f4914f6cdd1dull};
  std::vector<uint8_t> bytes;
  if (m == 3) {
    std::vector<uint8_t> payload = FzzPayload();
    size_t flips = 1 + rng.Next() % 8;
    for (size_t f = 0; f < flips && !payload.empty(); ++f) {
      payload[rng.Next() % payload.size()] ^= static_cast<uint8_t>(1u << (rng.Next() % 8));
    }
    bytes = SealPackageRaw("fzz", payload, kDeveloperKey);
  } else {
    bytes = FzzSealed();
    if (m == 1) {
      size_t flips = 1 + rng.Next() % 8;
      for (size_t f = 0; f < flips && !bytes.empty(); ++f) {
        bytes[rng.Next() % bytes.size()] ^= static_cast<uint8_t>(1u << (rng.Next() % 8));
      }
    } else if (m == 2) {
      bytes.resize(rng.Next() % bytes.size());
    }
  }
  return bytes;
}

const char* EntryOf(size_t cls) {
  const std::vector<DriverletClassSpec>& classes = RegisteredDriverletClasses();
  return classes[cls % classes.size()].entry;
}

class BoundaryExec {
 public:
  BoundaryExec(const BoundaryProgram& p, bool plant_ring_quirk)
      : prog_(p), plant_ring_quirk_(plant_ring_quirk) {
    TestbedOptions opts;
    opts.secure_io = true;
    opts.probe_drivers = false;
    tb_ = std::make_unique<Rpi3Testbed>(opts);
    ReplayServiceConfig cfg;
    cfg.max_sessions = kSlots;
    cfg.ring_depth = 4;       // small rings so wrap-around is routine
    cfg.quarantine_threshold = 1;  // the strictest policy: fence on the first failure
    service_ = std::make_unique<ReplayService>(&tb_->tee(), kDeveloperKey, cfg);
    injector_ = std::make_unique<FaultInjector>(&tb_->machine());
  }

  BoundaryRunResult Run() {
    // Warm the process-wide package cache before arming telemetry: the
    // one-time record campaigns emit counters, and a run's feature set must
    // not depend on whether an earlier run already paid that cost.
    for (size_t cls = 0; cls < NumClasses(); ++cls) OpenedPackage(cls);
    FzzSealed();
    Telemetry::Get().Enable();
    Telemetry::Get().Reset();
    Setup();
    for (size_t i = 0; i < prog_.actions.size() && ok(); ++i) {
      Step(prog_.actions[i], i);
      if (ok()) AfterAction();
      ++result_.actions_run;
    }
    if (ok()) Finish();
    CollectFeatures();
    Telemetry::Get().Disable();
    result_.trace = std::move(trace_);
    return std::move(result_);
  }

 private:
  bool ok() const { return result_.invariant.empty(); }

  void Fail(const char* invariant, std::string detail) {
    if (!ok()) return;  // keep the first violation
    result_.invariant = invariant;
    result_.detail = std::move(detail);
  }

  void Trace(const std::string& line) {
    trace_ += line;
    trace_ += '\n';
  }

  // Statuses that must never escape the service boundary, whatever the
  // client does: they signal internal corruption, not client error.
  static bool StatusAllowed(Status s) {
    switch (s) {
      case Status::kBadState:
      case Status::kCorrupt:
      case Status::kUnsupported:
      case Status::kPermissionDenied:
        return false;
      default:
        return true;
    }
  }

  void CheckStatus(size_t idx, const char* what, Status s) {
    if (!StatusAllowed(s)) {
      Fail("allowed-status", std::string(what) + " returned " + StatusName(s) +
                                 " at action #" + std::to_string(idx));
    }
  }

  void Setup() {
    // Register only the classes the program opens (plus mmc as a floor), so
    // open-reject paths stay reachable for the other names.
    std::vector<bool> wanted(NumClasses(), false);
    bool any = false;
    for (const BoundaryAction& a : prog_.actions) {
      if (a.op == BoundaryOp::kOpen) {
        wanted[a.a % NumClasses()] = true;
        any = true;
      }
    }
    if (!any) wanted[0] = true;
    for (size_t cls = 0; cls < NumClasses(); ++cls) {
      if (!wanted[cls]) continue;
      const Result<DriverletPackage>& pkg = OpenedPackage(cls);
      Result<std::string> name = pkg.ok() ? service_->RegisterDriverlet(*pkg)
                                          : Result<std::string>(pkg.status());
      if (!name.ok()) {
        Fail("allowed-status", std::string("registration of sealed package failed: ") +
                                   StatusName(name.status()));
        return;
      }
      class_name_[cls] = *name;
    }
  }

  // Synthesizes the invoke arguments for (class, entry variant, arg seed).
  // Buffers live in |arena_| for the whole run: RingPush borrows views until
  // their completions are reaped.
  std::pair<std::string, ReplayArgs> SynthInvoke(size_t cls, uint64_t variant, uint64_t seed) {
    cls %= NumClasses();
    variant %= 4;
    std::string entry = EntryOf(cls);
    if (variant == 2) entry = EntryOf(cls + 1);  // cross-class: uncovered
    if (variant == 3) entry = "replay_nosuch";
    ReplayArgs args;
    if (cls == 3) {
      // fTPM command pipe. Variant 0: GetRandom at a covered length derived
      // from the seed (the recorded 32..256 range); variant 1: PcrExtend on a
      // covered bank index.
      uint64_t ord = variant == 1 ? kFtpmOrdPcrExtend : kFtpmOrdGetRandom;
      uint64_t arg = variant == 1 ? seed % kFtpmPcrCount : 32 + (seed % 8) * 32;
      arena_.push_back(PatternBuf(kFtpmPcrBytes, seed));
      std::vector<uint8_t>& req = arena_.back();
      arena_.emplace_back(kFtpmMaxRandom, 0);
      std::vector<uint8_t>& rsp = arena_.back();
      args.scalars = {{"ord", ord}, {"arg", arg}};
      args.ro_buffers["req"] = ConstBufferView{req.data(), req.size()};
      args.buffers["rsp"] = BufferView{rsp.data(), rsp.size()};
    } else if (cls == 4) {
      // DMA crypto engine. Variant 0: encrypt at a seed-picked length inside
      // the covered 1..4 chunk-count range; variant 1: digest one chunk. The
      // key is a free symbolic operand, so any value is covered.
      uint64_t op = variant == 1 ? kCaOpDigest : kCaOpEncrypt;
      uint64_t len = variant == 1 ? kCryptoChunkBytes : 256 * (1 + seed % 64);
      arena_.push_back(PatternBuf(len, seed));
      std::vector<uint8_t>& buf = arena_.back();
      arena_.emplace_back(op == kCaOpDigest ? kCaDigestBytes : len, 0);
      std::vector<uint8_t>& out = arena_.back();
      args.scalars = {{"op", op}, {"key", 0xc0ffee00 + (seed % 16)}, {"len", len}};
      args.ro_buffers["buf"] = ConstBufferView{buf.data(), buf.size()};
      args.buffers["out"] = BufferView{out.data(), out.size()};
    } else if (cls == 2) {
      // Camera capture. One shared frame buffer per run bounds arena growth;
      // frame content is not an invariant here, only boundary behaviour.
      if (camera_buf_.empty()) {
        camera_buf_.resize(Vc4Firmware::FrameBytes(1440) + 4096);
      }
      arena_.emplace_back(4, 0);
      std::vector<uint8_t>& img_size = arena_.back();
      args.scalars = {{"frame", 1 + (seed % 2)},
                      {"resolution", variant == 1 ? 1080 : 720},
                      {"buf_size", camera_buf_.size()}};
      args.buffers["buf"] = BufferView{camera_buf_.data(), camera_buf_.size()};
      args.buffers["img_size"] = BufferView{img_size.data(), img_size.size()};
    } else {
      uint64_t blkcnt = 1 + (seed % 8);
      uint64_t blkid = 2048 + (seed % 32) * 64;
      bool read = variant == 1;
      args.scalars = {{"rw", read ? kMmcRwRead : kMmcRwWrite},
                      {"blkcnt", blkcnt},
                      {"blkid", blkid},
                      {"flag", 0}};
      arena_.push_back(PatternBuf(blkcnt * 512, seed));
      std::vector<uint8_t>& buf = arena_.back();
      if (read) {
        args.buffers["buf"] = BufferView{buf.data(), buf.size()};
      } else {
        args.ro_buffers["buf"] = ConstBufferView{buf.data(), buf.size()};
      }
    }
    return {std::move(entry), std::move(args)};
  }

  SessionId SlotId(uint64_t a) const { return slots_[a % kSlots]; }

  // The planted ring bug (BoundaryFuzzConfig::plant_ring_quirk): once the
  // session's ring has wrapped, a pop reports the seq held by the sibling of
  // the slot it reaps (as if it indexed slots by reaped ^ 1): the latest seq
  // pushed into that slot.
  std::optional<uint64_t> PlantedRingSeq(SessionId id) const {
    if (!plant_ring_quirk_) return std::nullopt;
    Result<const InvocationRing*> ring = service_->Ring(id);
    if (!ring.ok()) return std::nullopt;
    const InvocationRing& r = **ring;
    if (r.depth() < 2 || r.reaped() < r.depth()) return std::nullopt;
    uint64_t slot = (r.reaped() ^ 1) % r.depth();
    return r.pushed() - 1 - (r.pushed() - 1 - slot) % r.depth();
  }

  size_t SlotClass(uint64_t a) const { return slot_class_[a % kSlots]; }

  void Step(const BoundaryAction& act, size_t idx) {
    std::string line = std::to_string(idx) + " " + NameOf(act.op);
    switch (act.op) {
      case BoundaryOp::kOpen: {
        size_t cls = act.a % NumClasses();
        Result<SessionId> sid = service_->OpenSession(class_name_[cls]);
        CheckStatus(idx, "OpenSession", sid.ok() ? Status::kOk : sid.status());
        line += sid.ok() ? " ok" : std::string(" ") + StatusName(sid.status());
        if (sid.ok()) {
          size_t slot = kSlots;
          for (size_t i = 0; i < kSlots; ++i) {
            if (slots_[i] == 0) {
              slot = i;
              break;
            }
          }
          if (slot == kSlots) {
            // No free slot to track it: close again (exercises the
            // open/close edge pair without leaking table entries).
            service_->CloseSession(*sid);
            line += " untracked";
          } else {
            slots_[slot] = *sid;
            slot_class_[slot] = cls;
            line += " slot=" + std::to_string(slot);
          }
        }
        break;
      }
      case BoundaryOp::kClose: {
        SessionId id = SlotId(act.a);
        Status s = service_->CloseSession(id == 0 ? 999999 : id);
        CheckStatus(idx, "CloseSession", s);
        line += std::string(" ") + StatusName(s);
        if (id != 0) {
          slots_[act.a % kSlots] = 0;
          ring_last_seq_.erase(id);
          ring_counts_.erase(id);
          was_quarantined_.erase(id);
        }
        break;
      }
      case BoundaryOp::kInvoke: {
        SessionId id = SlotId(act.a);
        auto [entry, args] = SynthInvoke(SlotClass(act.a), act.b, act.c);
        bool quarantined_before = id != 0 && was_quarantined_.count(id) > 0;
        Result<ReplayStats> r = service_->Invoke(id == 0 ? 999999 : id, entry, args);
        CheckStatus(idx, "Invoke", r.ok() ? Status::kOk : r.status());
        if (quarantined_before && r.ok()) {
          Fail("quarantine-sticky",
               "Invoke succeeded on a quarantined session at action #" + std::to_string(idx));
        }
        line += r.ok() ? " ok ev=" + std::to_string(r->events_executed) + " meas=" +
                             r->measurement.substr(0, 8)
                       : std::string(" ") + StatusName(r.status());
        break;
      }
      case BoundaryOp::kRingPush: {
        SessionId id = SlotId(act.a);
        auto [entry, args] = SynthInvoke(SlotClass(act.a), act.b, act.c);
        Result<uint64_t> seq =
            service_->RingPush(id == 0 ? 999999 : id, std::move(entry), std::move(args));
        CheckStatus(idx, "RingPush", seq.ok() ? Status::kOk : seq.status());
        line += seq.ok() ? " seq=" + std::to_string(*seq)
                         : std::string(" ") + StatusName(seq.status());
        break;
      }
      case BoundaryOp::kDoorbell: {
        SessionId id = SlotId(act.a);
        Result<size_t> n = service_->RingDoorbell(id == 0 ? 999999 : id);
        CheckStatus(idx, "RingDoorbell", n.ok() ? Status::kOk : n.status());
        line += n.ok() ? " n=" + std::to_string(*n)
                       : std::string(" ") + StatusName(n.status());
        break;
      }
      case BoundaryOp::kRingPop: {
        SessionId id = SlotId(act.a);
        std::optional<uint64_t> planted_seq = PlantedRingSeq(id);
        Result<RingCompletion> c = service_->RingPop(id == 0 ? 999999 : id);
        CheckStatus(idx, "RingPop", c.ok() ? Status::kOk : c.status());
        if (c.ok()) {
          uint64_t seq = planted_seq.value_or(c->seq);
          line += " seq=" + std::to_string(seq);
          auto it = ring_last_seq_.find(id);
          if (it != ring_last_seq_.end() && seq <= it->second) {
            Fail("ring-order", "popped seq " + std::to_string(seq) + " after seq " +
                                   std::to_string(it->second) + " at action #" +
                                   std::to_string(idx));
          }
          ring_last_seq_[id] = seq;
        } else {
          line += std::string(" ") + StatusName(c.status());
        }
        break;
      }
      case BoundaryOp::kAttest: {
        SessionId id = SlotId(act.a);
        Result<AttestationQuote> q =
            service_->Attest(id == 0 ? 999999 : id, "n" + std::to_string(act.c % 16));
        CheckStatus(idx, "Attest", q.ok() ? Status::kOk : q.status());
        if (q.ok()) {
          line += " pcr=" + q->session_measurement.substr(0, 8);
          if (!VerifyQuote(*q, kDeveloperKey)) {
            Fail("attest", "freshly signed quote failed verification at action #" +
                               std::to_string(idx));
          }
          Result<AttestationQuote> rt = ParseQuote(SerializeQuote(*q));
          if (!rt.ok() || SerializeQuote(*rt) != SerializeQuote(*q) ||
              !VerifyQuote(*rt, kDeveloperKey)) {
            Fail("attest",
                 "quote did not round-trip byte-identically at action #" + std::to_string(idx));
          }
          Result<SessionStats> st = service_->Stats(id);
          if (st.ok() && (q->invokes != st->invokes ||
                          q->measurement_mismatches != st->measurement_mismatches ||
                          q->quarantined != st->quarantined)) {
            Fail("attest",
                 "quote counters disagree with session stats at action #" + std::to_string(idx));
          }
        } else {
          line += std::string(" ") + StatusName(q.status());
        }
        break;
      }
      case BoundaryOp::kFaultArm: {
        FaultPlane plane = static_cast<FaultPlane>(act.a % 3);
        size_t cls = act.b % NumClasses();
        FaultTargets targets;
        if (cls == 0) {
          targets.device = tb_->mmc_id();
          targets.dma_via_engine = true;
        } else if (cls == 1) {
          targets.device = tb_->usb_id();
        } else if (cls == 2) {
          targets.device = tb_->vchiq_id();
        } else if (cls == 3) {
          targets.device = tb_->ftpm_id();
        } else {
          // The crypto engine masters its descriptor ring itself, so its DMA
          // plane is the device, not the system engine.
          targets.device = tb_->crypto_id();
        }
        FaultPlan plan = MakePresetPlan(plane, act.c + 1, targets);
        Status s = injector_->Arm(plan);
        any_fault_ = true;
        line += std::string(" ") + FaultPlaneName(plane) + " " + StatusName(s);
        break;
      }
      case BoundaryOp::kFaultDisarm: {
        injector_->Disarm();
        break;
      }
      case BoundaryOp::kRegisterPackage: {
        std::vector<uint8_t> bytes = MutantPackageBytes(act.a, act.c);
        size_t count_before = service_->store().template_count();
        bool had_before = service_->store().HasDriverlet("fzz");
        Result<std::string> name = service_->RegisterDriverlet(bytes.data(), bytes.size());
        Status s = name.ok() ? Status::kOk : name.status();
        // Per-op status contract, NOT CheckStatus: rejecting tampered bytes
        // with kCorrupt (or an unmapped device with kPermissionDenied) is the
        // correct answer here, while kBadState / kUnsupported still signal
        // internal corruption.
        switch (s) {
          case Status::kOk:
          case Status::kCorrupt:
          case Status::kPermissionDenied:
          case Status::kInvalidArg:
            break;
          default:
            Fail("allowed-status", std::string("RegisterDriverlet returned ") + StatusName(s) +
                                       " at action #" + std::to_string(idx));
            break;
        }
        bool had_after = service_->store().HasDriverlet("fzz");
        if (name.ok()) {
          if (!had_after || *name != "fzz") {
            Fail("register-atomic",
                 "successful registration not visible in the store at action #" +
                     std::to_string(idx));
          }
        } else if (had_after != had_before ||
                   service_->store().template_count() != count_before) {
          Fail("register-atomic",
               "failed registration changed store state at action #" + std::to_string(idx));
        }
        line += std::string(" ") + StatusName(s) + " m=" + std::to_string(act.c % 4);
        break;
      }
    }
    Trace(line);
  }

  // Cross-cutting invariants evaluated after every action.
  void AfterAction() {
    for (size_t i = 0; i < kSlots && ok(); ++i) {
      SessionId id = slots_[i];
      if (id == 0) continue;
      Result<SessionStats> st = service_->Stats(id);
      if (!st.ok()) {
        Fail("allowed-status", "Stats lost an open session: " +
                                   std::string(StatusName(st.status())));
        return;
      }
      if (was_quarantined_.count(id) > 0 && !st->quarantined) {
        Fail("quarantine-sticky", "session " + std::to_string(id) +
                                      " left quarantine without being closed");
        return;
      }
      if (st->quarantined) was_quarantined_.insert(id);

      Result<const InvocationRing*> ring = service_->Ring(id);
      if (!ring.ok()) continue;
      uint64_t pushed = (*ring)->pushed();
      uint64_t drained = (*ring)->drained();
      uint64_t reaped = (*ring)->reaped();
      if (pushed < drained || drained < reaped) {
        Fail("ring-accounting",
             "ring counters out of order: pushed=" + std::to_string(pushed) +
                 " drained=" + std::to_string(drained) + " reaped=" + std::to_string(reaped));
        return;
      }
      auto it = ring_counts_.find(id);
      if (it != ring_counts_.end()) {
        if (pushed < it->second[0] || drained < it->second[1] || reaped < it->second[2]) {
          Fail("ring-accounting",
               "ring counters regressed for session " + std::to_string(id));
          return;
        }
      }
      ring_counts_[id] = {pushed, drained, reaped};
    }
  }

  // End-of-run checks + the trace's closing summary.
  void Finish() {
    for (size_t i = 0; i < kSlots; ++i) {
      SessionId id = slots_[i];
      if (id == 0) continue;
      Result<SessionStats> st = service_->Stats(id);
      if (!st.ok()) continue;
      if (!any_fault_ && st->measurement_mismatches > 0) {
        Fail("integrity", "fault-free program recorded " +
                              std::to_string(st->measurement_mismatches) +
                              " measurement mismatches on session " + std::to_string(id));
      }
      Trace("end slot=" + std::to_string(i) + " invokes=" + std::to_string(st->invokes) +
            " failures=" + std::to_string(st->failures) +
            " mismatches=" + std::to_string(st->measurement_mismatches) +
            " quarantined=" + (st->quarantined ? std::string("1") : std::string("0")) +
            " meas=" + st->last_measurement.substr(0, 8));
    }
    Trace("end quarantined_total=" + std::to_string(service_->quarantined_sessions()) +
          " sim_us=" + std::to_string(tb_->machine().clock().now_us()));
  }

  // One (name-hash, log2 value) feature per telemetry counter the run moved
  // and per histogram that took samples (its sample count: the replay.us.<kind>
  // histograms count executed events by kind).
  void CollectFeatures() {
    const MetricsRegistry& m = Telemetry::Get().metrics();
    m.ForEachCounter([this](const std::string& name, const Counter& c) {
      AddFeature(name, c.value());
    });
    m.ForEachHistogram([this](const std::string& name, const Histogram& h) {
      AddFeature(name, h.count());
    });
  }

  void AddFeature(const std::string& metric, uint64_t n) {
    if (n > 0) {
      result_.features.insert(((Fnv1a(metric) & 0xffffffffull) << 6) | Log2Bucket(n));
    }
  }

  const BoundaryProgram& prog_;
  bool plant_ring_quirk_;
  std::unique_ptr<Rpi3Testbed> tb_;
  std::unique_ptr<ReplayService> service_;
  std::unique_ptr<FaultInjector> injector_;
  std::vector<std::string> class_name_ = std::vector<std::string>(NumClasses());
  SessionId slots_[kSlots] = {0, 0, 0, 0};
  size_t slot_class_[kSlots] = {0, 0, 0, 0};
  std::deque<std::vector<uint8_t>> arena_;
  std::vector<uint8_t> camera_buf_;
  std::map<SessionId, uint64_t> ring_last_seq_;
  std::map<SessionId, std::array<uint64_t, 3>> ring_counts_;
  std::set<SessionId> was_quarantined_;
  bool any_fault_ = false;
  std::string trace_;
  BoundaryRunResult result_;
};

// ---------------------------------------------------------------------------
// Mutation
// ---------------------------------------------------------------------------

BoundaryAction RandomAction(FuzzRng& rng) {
  BoundaryAction a;
  a.op = kOpNames[rng.Next() % kOpCount].op;
  a.a = rng.Next() % 8;
  a.b = rng.Next() % 4;
  a.c = rng.Next() % 64;
  return a;
}

BoundaryProgram RandomProgram(FuzzRng& rng) {
  BoundaryProgram p;
  size_t n = 4 + rng.Next() % 13;
  p.actions.reserve(n);
  for (size_t i = 0; i < n; ++i) p.actions.push_back(RandomAction(rng));
  return p;
}

BoundaryProgram Mutate(const BoundaryProgram& base, const BoundaryProgram& other,
                       FuzzRng& rng, size_t max_actions) {
  BoundaryProgram p = base;
  size_t edits = 1 + rng.Next() % 3;
  for (size_t e = 0; e < edits; ++e) {
    uint64_t kind = rng.Next() % 6;
    size_t n = p.actions.size();
    switch (kind) {
      case 0: {  // insert
        size_t at = n == 0 ? 0 : rng.Next() % (n + 1);
        p.actions.insert(p.actions.begin() + static_cast<long>(at), RandomAction(rng));
        break;
      }
      case 1: {  // delete
        if (n > 1) p.actions.erase(p.actions.begin() + static_cast<long>(rng.Next() % n));
        break;
      }
      case 2: {  // tweak one field
        if (n == 0) break;
        BoundaryAction& a = p.actions[rng.Next() % n];
        switch (rng.Next() % 4) {
          case 0: a.op = kOpNames[rng.Next() % kOpCount].op; break;
          case 1: a.a = rng.Next() % 8; break;
          case 2: a.b = rng.Next() % 4; break;
          default: a.c = rng.Next() % 64; break;
        }
        break;
      }
      case 3: {  // duplicate
        if (n == 0) break;
        size_t at = rng.Next() % n;
        p.actions.insert(p.actions.begin() + static_cast<long>(at), p.actions[at]);
        break;
      }
      case 4: {  // splice: other's prefix + our suffix
        if (other.actions.empty() || n == 0) break;
        size_t cut_a = rng.Next() % (other.actions.size() + 1);
        size_t cut_b = rng.Next() % (n + 1);
        BoundaryProgram spliced;
        spliced.actions.assign(other.actions.begin(),
                               other.actions.begin() + static_cast<long>(cut_a));
        spliced.actions.insert(spliced.actions.end(),
                               p.actions.begin() + static_cast<long>(cut_b), p.actions.end());
        if (!spliced.actions.empty()) p = std::move(spliced);
        break;
      }
      default: {  // truncate
        if (n > 2) p.actions.resize(1 + rng.Next() % (n - 1));
        break;
      }
    }
  }
  if (p.actions.size() > max_actions) p.actions.resize(max_actions);
  if (p.actions.empty()) p.actions.push_back(RandomAction(rng));
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

std::string BoundaryProgramToString(const BoundaryProgram& p) {
  std::string s;
  s += kProgramHeader;
  s += '\n';
  for (const BoundaryAction& a : p.actions) {
    s += NameOf(a.op);
    s += ' ';
    s += std::to_string(a.a);
    s += ' ';
    s += std::to_string(a.b);
    s += ' ';
    s += std::to_string(a.c);
    s += '\n';
  }
  return s;
}

Result<BoundaryProgram> ParseBoundaryProgram(std::string_view text) {
  BoundaryProgram p;
  bool saw_header = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (!saw_header) {
      if (line != kProgramHeader) return Status::kCorrupt;
      saw_header = true;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    auto toks = SplitWs(line);
    if (toks.empty()) continue;
    BoundaryAction a;
    bool known = false;
    for (const OpName& n : kOpNames) {
      if (toks[0] == n.name) {
        a.op = n.op;
        known = true;
        break;
      }
    }
    if (!known || toks.size() > 4) return Status::kCorrupt;
    if (toks.size() > 1) {
      DLT_ASSIGN_OR_RETURN(a.a, ParseU64(toks[1]));
    }
    if (toks.size() > 2) {
      DLT_ASSIGN_OR_RETURN(a.b, ParseU64(toks[2]));
    }
    if (toks.size() > 3) {
      DLT_ASSIGN_OR_RETURN(a.c, ParseU64(toks[3]));
    }
    p.actions.push_back(a);
  }
  if (!saw_header) return Status::kCorrupt;
  return p;
}

// ---------------------------------------------------------------------------
// Execution + built-in corpus
// ---------------------------------------------------------------------------

BoundaryRunResult RunBoundaryProgram(const BoundaryProgram& p, bool plant_ring_quirk) {
  BoundaryExec exec(p, plant_ring_quirk);
  return exec.Run();
}

std::vector<BoundaryProgram> BuiltinBoundaryCorpus() {
  // One lifecycle per registered driverlet class: open, a covered invoke
  // (arg seed 7 maps into each class's recorded geometry), a full ring cycle
  // that wraps the 4-deep ring, attest, close.
  std::vector<BoundaryProgram> corpus;
  for (uint64_t cls = 0; cls < NumClasses(); ++cls) {
    BoundaryProgram p;
    auto add = [&p](BoundaryOp op, uint64_t a, uint64_t b, uint64_t c) {
      p.actions.push_back(BoundaryAction{op, a, b, c});
    };
    add(BoundaryOp::kOpen, cls, 0, 0);
    add(BoundaryOp::kInvoke, 0, 0, 7);
    for (int i = 0; i < 4; ++i) add(BoundaryOp::kRingPush, 0, 0, 7);
    add(BoundaryOp::kDoorbell, 0, 0, 0);
    for (int i = 0; i < 4; ++i) add(BoundaryOp::kRingPop, 0, 0, 0);
    // Second lap wraps the sequence space past the 4-slot ring.
    for (int i = 0; i < 2; ++i) add(BoundaryOp::kRingPush, 0, 1, 7);
    add(BoundaryOp::kDoorbell, 0, 0, 0);
    for (int i = 0; i < 2; ++i) add(BoundaryOp::kRingPop, 0, 0, 0);
    add(BoundaryOp::kAttest, 0, 0, 1);
    add(BoundaryOp::kClose, 0, 0, 0);
    corpus.push_back(std::move(p));
  }
  // Register-boundary lifecycle: the intact seal, then each mutation class,
  // interleaved with live mmc traffic to pin down that a rejected package
  // never perturbs open sessions.
  {
    BoundaryProgram p;
    auto add = [&p](BoundaryOp op, uint64_t a, uint64_t b, uint64_t c) {
      p.actions.push_back(BoundaryAction{op, a, b, c});
    };
    add(BoundaryOp::kOpen, 0, 0, 0);
    add(BoundaryOp::kRegisterPackage, 0, 0, 0);  // intact
    add(BoundaryOp::kRegisterPackage, 0, 0, 0);  // intact again: replaces "fzz"
    add(BoundaryOp::kInvoke, 0, 0, 7);
    add(BoundaryOp::kRegisterPackage, 1, 0, 1);  // post-seal bit flips
    add(BoundaryOp::kRegisterPackage, 2, 0, 2);  // truncation
    add(BoundaryOp::kRegisterPackage, 3, 0, 3);  // re-signed mutated payload
    add(BoundaryOp::kRegisterPackage, 4, 0, 3);
    add(BoundaryOp::kInvoke, 0, 0, 7);
    add(BoundaryOp::kClose, 0, 0, 0);
    corpus.push_back(std::move(p));
  }
  return corpus;
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

Result<BoundaryShrinkResult> ShrinkBoundary(const BoundaryProgram& p,
                                            const std::string& invariant,
                                            bool plant_ring_quirk) {
  if (RunBoundaryProgram(p, plant_ring_quirk).invariant != invariant) {
    return Status::kInvalidArg;
  }

  constexpr int kMaxSteps = 300;
  BoundaryShrinkResult result;
  result.original_actions = p.actions.size();
  BoundaryProgram cur = p;
  int steps = 0;
  auto still_fails = [&](const BoundaryProgram& cand) {
    if (steps >= kMaxSteps) return false;
    ++steps;
    return RunBoundaryProgram(cand, plant_ring_quirk).invariant == invariant;
  };

  bool progress = true;
  while (progress && steps < kMaxSteps) {
    progress = false;
    for (size_t chunk = std::max<size_t>(cur.actions.size() / 2, 1);; chunk /= 2) {
      size_t i = 0;
      while (i < cur.actions.size() && steps < kMaxSteps) {
        BoundaryProgram cand = cur;
        size_t end = std::min(i + chunk, cand.actions.size());
        cand.actions.erase(cand.actions.begin() + static_cast<long>(i),
                           cand.actions.begin() + static_cast<long>(end));
        if (!cand.actions.empty() && still_fails(cand)) {
          cur = std::move(cand);
          progress = true;
        } else {
          i += chunk;
        }
      }
      if (chunk == 1) break;
    }
  }
  result.reduced = std::move(cur);
  result.steps = steps;
  return result;
}

// ---------------------------------------------------------------------------
// Repro files
// ---------------------------------------------------------------------------

std::string BoundaryReproToString(const BoundaryProgram& p, const std::string& invariant,
                                  const std::string& detail) {
  std::string s;
  s += kReproHeader;
  s += '\n';
  s += "invariant " + invariant + "\n";
  if (!detail.empty()) s += "detail " + detail + "\n";
  s += "program\n";
  s += BoundaryProgramToString(p);
  return s;
}

Result<BoundaryRepro> ParseBoundaryRepro(std::string_view text) {
  BoundaryRepro repro;
  bool saw_header = false;
  bool in_program = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (!saw_header) {
      if (line != kReproHeader) return Status::kCorrupt;
      saw_header = true;
      continue;
    }
    if (line == "program") {
      in_program = true;
      break;
    }
    if (line.empty()) continue;
    size_t sp = line.find(' ');
    std::string_view key = line.substr(0, sp);
    std::string_view val =
        sp == std::string_view::npos ? std::string_view() : line.substr(sp + 1);
    if (key == "invariant") {
      repro.invariant = std::string(val);
    } else if (key == "detail") {
      repro.detail = std::string(val);
    } else {
      return Status::kCorrupt;
    }
  }
  if (!saw_header || !in_program) return Status::kCorrupt;
  DLT_ASSIGN_OR_RETURN(repro.program, ParseBoundaryProgram(text.substr(pos)));
  return repro;
}

Status WriteBoundaryRepro(const std::string& path, const BoundaryProgram& p,
                          const std::string& invariant, const std::string& detail) {
  std::string body = BoundaryReproToString(p, invariant, detail);
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::kIoError;
  size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return written == body.size() ? Status::kOk : Status::kIoError;
}

Result<BoundaryRepro> ReadBoundaryRepro(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::kNotFound;
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return ParseBoundaryRepro(text);
}

// ---------------------------------------------------------------------------
// The fuzz loop
// ---------------------------------------------------------------------------

BoundaryFuzzStats RunBoundaryFuzz(const BoundaryFuzzConfig& cfg) {
  BoundaryFuzzStats stats;
  std::vector<BoundaryProgram> corpus = BuiltinBoundaryCorpus();
  for (const BoundaryProgram& p : cfg.extra_corpus) corpus.push_back(p);

  std::set<uint64_t> features;
  FuzzRng rng{cfg.seed * 0x9e3779b97f4a7c15ull + 1};

  auto record_finding = [&](const std::string& invariant, const std::string& detail,
                            const BoundaryProgram& p) {
    for (const BoundaryFinding& f : stats.findings) {
      if (f.invariant == invariant) return;  // one shrunk repro per invariant
    }
    BoundaryFinding f;
    f.invariant = invariant;
    f.detail = detail;
    f.program = p;
    f.shrunk = p;
    Result<BoundaryShrinkResult> s = ShrinkBoundary(p, invariant, cfg.plant_ring_quirk);
    if (s.ok()) {
      f.shrunk = s->reduced;
      f.shrink_steps = s->steps;
    }
    if (!cfg.repro_dir.empty()) {
      f.repro_path = cfg.repro_dir + "/boundary_" + invariant + ".repro";
      WriteBoundaryRepro(f.repro_path, f.shrunk, invariant, detail);
    }
    stats.findings.push_back(std::move(f));
  };

  // Seed phase: every corpus entry runs once, its features chart the floor.
  for (const BoundaryProgram& p : corpus) {
    BoundaryRunResult r = RunBoundaryProgram(p, cfg.plant_ring_quirk);
    features.insert(r.features.begin(), r.features.end());
    if (!r.ok()) record_finding(r.invariant, r.detail, p);
  }
  stats.coverage_curve.push_back(features.size());

  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(cfg.seconds));
  auto more = [&]() {
    if (static_cast<int>(stats.findings.size()) >= cfg.max_findings) return false;
    if (cfg.iterations > 0) return stats.runs < cfg.iterations;
    return std::chrono::steady_clock::now() < deadline;
  };

  while (more()) {
    BoundaryProgram cand;
    if (rng.Next() % 8 == 0) {
      cand = RandomProgram(rng);
    } else {
      const BoundaryProgram& base = corpus[rng.Next() % corpus.size()];
      const BoundaryProgram& other = corpus[rng.Next() % corpus.size()];
      cand = Mutate(base, other, rng, cfg.max_actions);
    }
    BoundaryRunResult r = RunBoundaryProgram(cand, cfg.plant_ring_quirk);
    ++stats.runs;
    if (!r.ok()) {
      record_finding(r.invariant, r.detail, cand);
    } else {
      bool novel = false;
      for (uint64_t f : r.features) {
        if (features.count(f) == 0) {
          novel = true;
          break;
        }
      }
      if (novel) {
        // Corpus admission doubles as the determinism invariant: the same
        // program must replay to the same observable trace.
        BoundaryRunResult again = RunBoundaryProgram(cand, cfg.plant_ring_quirk);
        if (again.trace != r.trace) {
          record_finding("determinism", "trace differs across identical runs", cand);
        } else {
          features.insert(r.features.begin(), r.features.end());
          corpus.push_back(std::move(cand));
        }
      }
    }
    if (stats.runs % kCurveStride == 0) stats.coverage_curve.push_back(features.size());
  }
  stats.coverage_curve.push_back(features.size());
  stats.corpus_size = corpus.size();
  stats.features = features.size();
  return stats;
}

}  // namespace dlt
