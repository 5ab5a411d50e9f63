#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <map>
#include <thread>

#include "src/core/integrity.h"
#include "src/dev/cryptoacc/cryptoacc_device.h"
#include "src/dev/ftpm/ftpm_device.h"
#include "src/tee/replay_fleet.h"
#include "src/workload/deploy_util.h"
#include "src/workload/minidb.h"
#include "src/workload/replay_block_device.h"
#include "src/workload/sqlite_scripts.h"

namespace perfbench {
namespace {

using namespace dlt;

double SecondsSince(int64_t t0_ns) { return static_cast<double>(NowNs() - t0_ns) / 1e9; }

void RecordOp(Phase* ph, int64_t host_ns, bool in_prefix, uint64_t model_us, bool ok) {
  ph->host_us.push_back(static_cast<double>(host_ns) / 1e3);
  ++ph->ops;
  if (!ok) {
    ++ph->failed;
  }
  if (in_prefix) {
    ph->model_us.push_back(static_cast<double>(model_us));
    ++ph->prefix_ops;
  }
}

// ------------------------------------------------------------ deployment ----

// A deployment machine whose ReplayService runs over either the testbed's own
// SecureWorld or, for a traced phase, a TimedSecureWorld on the same machine.
struct Deployment {
  std::unique_ptr<Rpi3Testbed> tb;
  std::unique_ptr<TimedSecureWorld> timed;
  std::unique_ptr<ReplayService> svc;
  SecureWorld* world = nullptr;
};

Deployment NewDeployment(bool traced) {
  Deployment d;
  TestbedOptions opts;
  opts.secure_io = true;
  opts.probe_drivers = false;
  d.tb = std::make_unique<Rpi3Testbed>(opts);
  d.world = &d.tb->tee();
  if (traced) {
    Rpi3Testbed& tb = *d.tb;
    d.timed = std::make_unique<TimedSecureWorld>(
        &tb.machine(),
        std::vector<uint16_t>{tb.mmc_id(), tb.usb_id(), tb.vchiq_id(), tb.display_id(),
                              tb.touch_id(), tb.uart_id(), tb.ftpm_id(), tb.crypto_id(),
                              tb.dma_id()});
    d.world = d.timed.get();
  }
  d.svc = std::make_unique<ReplayService>(d.world, kDeveloperKey);
  return d;
}

bool Register(ReplayService* svc, const std::vector<uint8_t>& pkg) {
  return !pkg.empty() && svc->RegisterDriverlet(pkg.data(), pkg.size()).ok();
}

// ------------------------------------------------------ traced breakdown ----

// Service-visible counters read around a traced op group.
struct StackCounters {
  uint64_t candidates = 0;
  uint64_t select_hits = 0;
  uint64_t select_misses = 0;
  uint64_t compile_hits = 0;
  uint64_t compile_misses = 0;
  uint64_t switches = 0;
  uint64_t invokes = 0;
  uint64_t events = 0;
  uint64_t attempts = 0;
  uint64_t resets = 0;
};

void AddStore(const TemplateStore& s, StackCounters* c) {
  c->candidates += s.candidates_scanned();
  c->select_hits += s.select_cache_hits();
  c->select_misses += s.select_cache_misses();
  c->compile_hits += s.compile_cache_hits();
  c->compile_misses += s.compile_cache_misses();
}

void AddSession(const ReplayService& svc, SessionId sid, StackCounters* c) {
  Result<SessionStats> st = svc.Stats(sid);
  if (st.ok()) {
    c->invokes += st->invokes;
    c->events += st->events_executed;
    c->attempts += st->attempts;
    c->resets += st->resets;
  }
}

// A single-service workload's counters for one session.
StackCounters Counters(const Deployment& d, SessionId sid) {
  StackCounters c;
  AddStore(d.svc->store(), &c);
  AddSession(*d.svc, sid, &c);
  c.switches = d.world->world_switches();
  return c;
}

void AddCounterDelta(const StackCounters& a, const StackCounters& b, uint64_t switch_us,
                     LayerTotals* lt) {
  lt->world_switches += b.switches - a.switches;
  lt->switch_model_us += (b.switches - a.switches) * switch_us;
  lt->invokes += b.invokes - a.invokes;
  lt->events += b.events - a.events;
  lt->attempts += b.attempts - a.attempts;
  lt->resets += b.resets - a.resets;
  lt->candidates += b.candidates - a.candidates;
  lt->select_hits += b.select_hits - a.select_hits;
  lt->select_misses += b.select_misses - a.select_misses;
  lt->compile_hits += b.compile_hits - a.compile_hits;
  lt->compile_misses += b.compile_misses - a.compile_misses;
}

// Selection and integrity cost of an op, measured outside it: the same
// TemplateStore::Select and GoldenMeasurement calls the service makes, with
// the op's own inputs.
struct Estimate {
  int64_t select_ns = 0;
  int64_t golden_ns = 0;
  uint64_t measured = 0;  // top-level events the golden chain folds
};

volatile uint8_t g_sink = 0;

void EstimateInvoke(const TemplateStore& store, std::string_view driverlet,
                    std::string_view entry, const Bindings& scalars, Estimate* e) {
  int64_t t0 = NowNs();
  Result<const InteractionTemplate*> tpl = store.Select(driverlet, entry, scalars);
  int64_t t1 = NowNs();
  e->select_ns += t1 - t0;
  if (!tpl.ok()) {
    return;
  }
  int64_t t2 = NowNs();
  Sha256::Digest d = GoldenMeasurement(**tpl);
  int64_t t3 = NowNs();
  g_sink = g_sink ^ d[0];
  e->golden_ns += t3 - t2;
  e->measured += (*tpl)->events.size();
}

// Books one traced op group of |total_ns|. The timed world tiles each service
// window exactly into context calls and gaps, and ring push/pop times are
// taken outside those windows, so every piece is a disjoint sub-interval of
// the group and the remainder is what no layer claims.
void Attribute(int64_t total_ns, int64_t ring_ns, SocTotals soc, const Estimate& e,
               int64_t frame_ns, LayerTotals* lt) {
  int64_t store = std::min(e.select_ns, soc.gap_service_ns);
  int64_t integrity = std::min(e.golden_ns, soc.gap_exec_ns);
  int64_t frame = std::min(frame_ns, soc.host_ns[kIrq]);
  soc.host_ns[kIrq] -= frame;
  int64_t service = soc.gap_service_ns - store;
  int64_t replayer = soc.gap_exec_ns - integrity;
  int64_t attributed = ring_ns + store + integrity + frame + service + replayer + soc.soc_host_ns();
  int64_t rest = total_ns - attributed;
  if (rest < 0) {
    lt->closes = false;
  }
  lt->op_ns += total_ns;
  lt->ring_ns += ring_ns;
  lt->store_ns += store;
  lt->integrity_ns += integrity;
  lt->make_frame_ns += frame;
  lt->service_ns += service;
  lt->replayer_ns += replayer;
  lt->unattributed_ns += rest;
  lt->soc.Add(soc);
  lt->events_measured += e.measured;
}

// ------------------------------------------------ secure-IO commands ----

enum class Cls { kMmc, kFtpm, kCrypto };

// Response bytes an fTPM ordinal produces.
size_t FtpmRspBytes(uint64_t ord, uint64_t arg) {
  switch (ord) {
    case kFtpmOrdGetRandom:
      return static_cast<size_t>(arg);
    case kFtpmOrdPcrExtend:
      return 4;
    case kFtpmOrdPcrRead:
      return kFtpmPcrBytes;
    default:
      return 48;  // quote: nonce echo + PCR-bank digest
  }
}

// One secure-IO command of the ring and fleet workloads: its inputs, the
// buffers its ReplayArgs borrow, and the reference its output must equal.
struct Cmd {
  Cls cls = Cls::kMmc;
  uint64_t rw = 0, blkcnt = 0, blkid = 0;  // mmc
  uint64_t ord = 0, arg = 0;               // fTPM
  uint64_t op = 0, key = 0, len = 0;       // cryptoacc
  std::vector<uint8_t> in;      // write payload / fTPM request / plaintext
  std::vector<uint8_t> out;     // read-back / fTPM response / cipher output
  std::vector<uint8_t> expect;  // reference for |out|; empty when nothing comes back
  // Decrypt input: the paired encrypt's output, written when that runs.
  const std::vector<uint8_t>* src = nullptr;

  const char* driverlet() const {
    return cls == Cls::kMmc ? "mmc" : cls == Cls::kFtpm ? "ftpm" : "cryptoacc";
  }
  const char* entry() const {
    return cls == Cls::kMmc ? kMmcEntry : cls == Cls::kFtpm ? kFtpmEntry : kCryptoaccEntry;
  }
  Bindings Scalars() const {
    switch (cls) {
      case Cls::kMmc:
        return {{"rw", rw}, {"blkcnt", blkcnt}, {"blkid", blkid}, {"flag", 0}};
      case Cls::kFtpm:
        return {{"ord", ord}, {"arg", arg}};
      case Cls::kCrypto:
        return {{"op", op}, {"key", key}, {"len", len}};
    }
    return {};
  }
  ReplayArgs Args() {
    ReplayArgs a;
    a.scalars = Scalars();
    switch (cls) {
      case Cls::kMmc:
        if (rw == kMmcRwWrite) {
          a.ro_buffers["buf"] = ConstBufferView{in.data(), in.size()};
        } else {
          a.buffers["buf"] = BufferView{out.data(), out.size()};
        }
        break;
      case Cls::kFtpm:
        a.ro_buffers["req"] = ConstBufferView{in.data(), in.size()};
        a.buffers["rsp"] = BufferView{out.data(), out.size()};
        break;
      case Cls::kCrypto: {
        const std::vector<uint8_t>& data = src != nullptr ? *src : in;
        a.ro_buffers["buf"] = ConstBufferView{data.data(), static_cast<size_t>(len)};
        a.buffers["out"] = BufferView{out.data(), out.size()};
        break;
      }
    }
    return a;
  }
  // Inside the recorded coverage: MMC blkid 8-aligned with a recorded chunk
  // size, cipher lengths whole 4 KB chunks, digest one chunk.
  bool Covered() const {
    switch (cls) {
      case Cls::kMmc:
        return blkid % 8 == 0 && (blkcnt == 1 || blkcnt == 8);
      case Cls::kFtpm:
        return ord != kFtpmOrdGetRandom || (arg >= 32 && arg <= kFtpmMaxRandom && arg % 32 == 0);
      case Cls::kCrypto:
        return len % kCryptoChunkBytes == 0 && len >= kCryptoChunkBytes &&
               len <= (op == kCaOpDigest ? kCryptoChunkBytes : kCryptoMaxJobBytes);
    }
    return false;
  }
  size_t out_bytes() const {
    switch (cls) {
      case Cls::kMmc:
        return rw == kMmcRwRead ? out.size() : 0;
      case Cls::kFtpm:
        return FtpmRspBytes(ord, arg);
      case Cls::kCrypto:
        return op == kCaOpDigest ? kCaDigestBytes : static_cast<size_t>(len);
    }
    return 0;
  }
};

// Generators: pure functions of the rng stream.
void GenMmc(Rng& r, uint64_t base, uint64_t slots, uint64_t blkcnt, Cmd* c) {
  c->cls = Cls::kMmc;
  c->blkcnt = blkcnt;
  c->blkid = base + r.Below(slots) * 8;
  c->rw = r.Below(2) == 0 ? kMmcRwWrite : kMmcRwRead;
  c->in.assign(blkcnt * 512, 0);
  c->out.assign(blkcnt * 512, 0);
  if (c->rw == kMmcRwWrite) {
    r.Fill(c->in.data(), c->in.size());
  }
}

void GenFtpm(Rng& r, Cmd* c) {
  static const uint64_t kOrds[] = {kFtpmOrdGetRandom, kFtpmOrdPcrExtend, kFtpmOrdPcrRead,
                                   kFtpmOrdQuote};
  c->cls = Cls::kFtpm;
  c->ord = kOrds[r.Below(4)];
  c->arg = c->ord == kFtpmOrdGetRandom ? 32 * (1 + r.Below(8))
           : c->ord == kFtpmOrdQuote   ? 0x3
                                       : r.Below(kFtpmPcrCount);
  c->in.assign(kFtpmPcrBytes, 0);
  r.Fill(c->in.data(), c->in.size());
  c->out.assign(kFtpmMaxRandom, 0);
}

void GenCipher(Rng& r, uint64_t op, Cmd* c) {
  c->cls = Cls::kCrypto;
  c->op = op;
  c->key = 0xc0ffee00 + r.Below(16);
  c->len = kCryptoChunkBytes * (1 + r.Below(kCryptoMaxJobBytes / kCryptoChunkBytes));
  c->in.assign(c->len, 0);
  r.Fill(c->in.data(), c->in.size());
  c->out.assign(c->len, 0);
}

void GenDigest(Rng& r, Cmd* c) {
  c->cls = Cls::kCrypto;
  c->op = kCaOpDigest;
  c->key = 0xd16e5700 + r.Below(16);
  c->len = kCryptoChunkBytes;
  c->in.assign(c->len, 0);
  r.Fill(c->in.data(), c->in.size());
  c->out.assign(kCaDigestBytes, 0);
}

// The decrypt half of a round trip: reads |enc|'s output, must give back its
// plaintext.
void MakeDecrypt(const Cmd& enc, Cmd* c) {
  c->cls = Cls::kCrypto;
  c->op = kCaOpDecrypt;
  c->key = enc.key;
  c->len = enc.len;
  c->in.clear();
  c->src = &enc.out;
  c->out.assign(enc.len, 0);
  c->expect = enc.in;
}

uint64_t InputFold(uint64_t h, const Cmd& c) {
  uint64_t f[] = {static_cast<uint64_t>(c.cls), c.rw, c.blkcnt, c.blkid, c.ord, c.arg,
                  c.op, c.key, c.len};
  h = Fnv1a(h, f, sizeof f);
  return Fnv1a(h, c.in.data(), c.in.size());
}

// References computed before the command runs. MMC reads expect what the
// shadow holds at generation time: commands execute in generation order.
// fTPM responses come from the gold driver after the fact (FtpmGold).
void PrepareExpect(std::map<uint64_t, std::vector<uint8_t>>* shadow, Cmd* c) {
  if (c->cls == Cls::kMmc) {
    if (c->rw == kMmcRwWrite) {
      (*shadow)[c->blkid] = c->in;
    } else {
      auto it = shadow->find(c->blkid);
      c->expect = it != shadow->end() ? it->second : std::vector<uint8_t>(c->out.size(), 0);
    }
  } else if (c->cls == Cls::kCrypto && c->op == kCaOpEncrypt) {
    // XOR keystream restarting at every 4 KB descriptor chunk.
    c->expect.resize(c->len);
    for (uint64_t i = 0; i < c->len; ++i) {
      c->expect[i] = c->in[i] ^ CryptoaccDevice::KeystreamByte(static_cast<uint32_t>(c->key),
                                                                i % kCryptoChunkBytes);
    }
  } else if (c->cls == Cls::kCrypto && c->op == kCaOpDigest) {
    c->expect.resize(kCaDigestBytes);
    CryptoaccDevice::DigestBytes(static_cast<uint32_t>(c->key), c->in.data(), c->len,
                                 c->expect.data());
  }
}

// fTPM reference: the gold driver on a developer testbed, fed the same command
// stream in the same order. fTPM state (DRBG, PCR bank) is device NV state, so
// equal streams give equal responses.
class FtpmGold {
 public:
  FtpmGold() : tb_(TestbedOptions{.secure_io = false, .probe_drivers = false}) {}
  bool Check(const Cmd& c) {
    std::array<uint8_t, kFtpmMaxRandom> rsp{};
    if (!Ok(tb_.ftpm_driver().Execute(c.ord, c.arg, c.in.data(), rsp.data()))) {
      return false;
    }
    return std::memcmp(rsp.data(), c.out.data(), FtpmRspBytes(c.ord, c.arg)) == 0;
  }

 private:
  Rpi3Testbed tb_;
};

// Checks a completed command against its reference and folds its output.
bool CheckCmd(const Cmd& c, FtpmGold* gold, bool fold, uint64_t* digest) {
  bool ok = c.Covered();
  if (c.cls == Cls::kFtpm) {
    ok = ok && gold->Check(c);
  } else if (!c.expect.empty()) {
    ok = ok && std::memcmp(c.out.data(), c.expect.data(), c.expect.size()) == 0;
  }
  if (fold) {
    *digest = Fnv1a(*digest, c.out.data(), c.out_bytes());
  }
  return ok;
}

// ============================================================ sqlite_mmc ====

// One client cycles the six Table 9 scripts with seeded query parameters over
// MiniDb -> ReplayBlockDevice -> MMC driverlet. An op is one block-device
// request MiniDb issues; the benchmark's CheckedDevice sits between MiniDb and
// ReplayBlockDevice to time each request and compare every read with a shadow
// MemBlockDevice that mirrors the writes.
class SqliteMmc : public Workload {
 public:
  explicit SqliteMmc(uint64_t seed) : seed_(seed), rng_(seed) {}

  bool Setup(bool traced, SetupTimes* t) override {
    int64_t t0 = NowNs();
    std::vector<uint8_t> pkg = BuildMmcPackage();
    t->record_s = SecondsSince(t0);
    t0 = NowNs();
    d_ = NewDeployment(traced);
    t->testbed_s = SecondsSince(t0);
    t0 = NowNs();
    if (!Register(d_.svc.get(), pkg)) {
      return false;
    }
    Result<SessionId> sid = d_.svc->OpenSession("mmc");
    if (!sid.ok()) {
      return false;
    }
    sid_ = *sid;
    rdev_ = std::make_unique<ReplayBlockDevice>(d_.svc.get(), sid_, kMmcEntry);
    checked_ = std::make_unique<CheckedDevice>(this);
    counter_ = std::make_unique<CountingBlockDevice>(checked_.get());
    db_ = std::make_unique<MiniDb>(counter_.get());
    t->register_s = SecondsSince(t0);
    t0 = NowNs();
    Phase warm;
    phase_ = &warm;
    if (!Ok(db_->Open()) || !Ok(PopulateDb(db_.get(), kRows, seed_))) {
      return false;
    }
    for (size_t g = 0; g < kWarmGroups; ++g) {
      RunGroup(&warm, false);
    }
    t->warm_s = SecondsSince(t0);
    if (d_.timed != nullptr) {
      d_.timed->Arm(spans_);
    }
    return warm.failed == 0;
  }

  void RunGroup(Phase* ph, bool in_prefix) override {
    const std::string& script = SqliteScriptNames()[script_idx_ % SqliteScriptNames().size()];
    ++script_idx_;
    uint64_t qseed = rng_.Next();
    phase_ = ph;
    in_prefix_ = in_prefix;
    traced_ = ph->traced && d_.timed != nullptr;
    untimed_ns_ = 0;
    ops_ns_ = 0;
    uint64_t m0 = d_.tb->clock().now_us();
    int64_t t0 = NowNs();
    Result<ScriptResult> r =
        RunSqliteScript(script, db_.get(), counter_.get(), &d_.tb->clock(), kQueries, qseed);
    int64_t t1 = NowNs();
    uint64_t m1 = d_.tb->clock().now_us();
    if (!r.ok()) {
      ++ph->failed;
    }
    ph->wall_ns += (t1 - t0) - untimed_ns_;
    if (in_prefix) {
      ph->model_elapsed_us += m1 - m0;
    }
    if (traced_) {
      ph->layers.minidb_ns += (t1 - t0) - untimed_ns_ - ops_ns_;
      ph->layers.queries += kQueries;
    }
  }

  size_t prefix_groups() const override { return 360; }

  uint64_t InputDigest(size_t groups) const override {
    Rng r(seed_);
    uint64_t h = kFnvSeed;
    for (size_t g = 0; g < groups; ++g) {
      uint64_t v[] = {g % SqliteScriptNames().size(), r.Next()};
      h = Fnv1a(h, v, sizeof v);
    }
    return h;
  }

 private:
  static constexpr size_t kRows = 2000;
  static constexpr size_t kQueries = 2;
  static constexpr size_t kWarmGroups = 12;

  // Times each request MiniDb issues and checks it against the shadow.
  class CheckedDevice : public BlockDevice {
   public:
    explicit CheckedDevice(SqliteMmc* w) : w_(w), shadow_(kSdSectors) {}
    Status Read(uint64_t lba, uint32_t count, uint8_t* out) override {
      return w_->Request(kMmcRwRead, lba, count, out, nullptr, &shadow_);
    }
    Status Write(uint64_t lba, uint32_t count, const uint8_t* data) override {
      return w_->Request(kMmcRwWrite, lba, count, nullptr, data, &shadow_);
    }
    Status Flush() override { return Status::kOk; }
    uint64_t io_ops() const override { return 0; }

   private:
    SqliteMmc* w_;
    MemBlockDevice shadow_;
  };

  // ReplayBlockDevice's greedy chunking over the recorded granularities,
  // replayed to estimate each invoke's selection and integrity cost.
  static std::vector<uint32_t> Chunks(uint32_t count) {
    std::vector<uint32_t> out;
    while (count > 0) {
      uint32_t c = count >= 256 ? 256 : count >= 128 ? 128 : count >= 32 ? 32 : count >= 8 ? 8
                                                                                          : count;
      out.push_back(c);
      count -= c;
    }
    return out;
  }

  Status Request(uint64_t rw, uint64_t lba, uint32_t count, uint8_t* out, const uint8_t* in,
                 MemBlockDevice* shadow) {
    Phase* ph = phase_;
    int64_t u0 = NowNs();
    StackCounters c0;
    int32_t span = -1;
    uint32_t op = op_seq_++;
    if (traced_) {
      c0 = Counters(d_, sid_);
      span = spans_ != nullptr ? spans_->Add("workload.block_request", NowNs(), 0, -1, op) : -1;
    }
    untimed_ns_ += NowNs() - u0;

    uint64_t m0 = d_.tb->clock().now_us();
    int64_t t0 = NowNs();
    if (traced_) {
      d_.timed->BeginWindow(span, op);
    }
    Status s = rw == kMmcRwRead ? rdev_->Read(lba, count, out) : rdev_->Write(lba, count, in);
    if (traced_) {
      d_.timed->EndWindow();
    }
    int64_t t1 = NowNs();
    uint64_t m1 = d_.tb->clock().now_us();
    ops_ns_ += t1 - t0;

    u0 = NowNs();
    bool ok = Ok(s) && lba % 8 == 0 && (count == 1 || count % 8 == 0);
    size_t bytes = static_cast<size_t>(count) * 512;
    if (rw == kMmcRwRead) {
      scratch_.resize(bytes);
      ok = ok && Ok(shadow->Read(lba, count, scratch_.data())) &&
           std::memcmp(scratch_.data(), out, bytes) == 0;
      if (in_prefix_) {
        ph->digest = Fnv1a(ph->digest, out, bytes);
      }
    } else if (Ok(s)) {
      ok = ok && Ok(shadow->Write(lba, count, in));
    }
    if (traced_) {
      AddCounterDelta(c0, Counters(d_, sid_), d_.tb->machine().latency().world_switch_us,
                      &ph->layers);
      Estimate e;
      uint64_t blk = lba;
      for (uint32_t chunk : Chunks(count)) {
        Bindings scalars = {{"rw", rw}, {"blkcnt", chunk}, {"blkid", blk}, {"flag", 0}};
        EstimateInvoke(d_.svc->store(), "mmc", kMmcEntry, scalars, &e);
        blk += chunk;
      }
      Attribute(t1 - t0, 0, d_.timed->TakeTotals(), e, 0, &ph->layers);
      ++ph->layers.requests;
      if (spans_ != nullptr && span >= 0) {
        spans_->SetEnd(span, t1);
      }
    }
    RecordOp(ph, t1 - t0, in_prefix_, m1 - m0, ok);
    untimed_ns_ += NowNs() - u0;
    return s;
  }

  uint64_t seed_;
  Rng rng_;
  size_t script_idx_ = 0;
  Deployment d_;
  SessionId sid_ = 0;
  std::unique_ptr<ReplayBlockDevice> rdev_;
  std::unique_ptr<CheckedDevice> checked_;
  std::unique_ptr<CountingBlockDevice> counter_;
  std::unique_ptr<MiniDb> db_;
  std::vector<uint8_t> scratch_;

  // State of the group being run.
  Phase* phase_ = nullptr;
  bool in_prefix_ = false;
  bool traced_ = false;
  int64_t untimed_ns_ = 0;  // checking and trace bookkeeping inside the group
  int64_t ops_ns_ = 0;      // time inside block requests
  uint32_t op_seq_ = 0;
};

// ======================================================== camera_capture ====

// One client issues one-shot captures at a seeded mix of 720/1080/1440p. The
// device model resets before every capture, so each frame must equal
// Vc4Firmware::MakeFrame(0, resolution).
class CameraCapture : public Workload {
 public:
  explicit CameraCapture(uint64_t seed) : seed_(seed), rng_(seed) {}

  bool Setup(bool traced, SetupTimes* t) override {
    for (uint32_t res : kRes) {
      expected_[res] = Vc4Firmware::MakeFrame(0, res);
    }
    buf_.assign(Vc4Firmware::FrameBytes(1440) + 4096, 0);
    img_size_.assign(4, 0);
    int64_t t0 = NowNs();
    std::vector<uint8_t> pkg = BuildCameraPackage();
    t->record_s = SecondsSince(t0);
    t0 = NowNs();
    d_ = NewDeployment(traced);
    t->testbed_s = SecondsSince(t0);
    t0 = NowNs();
    if (!Register(d_.svc.get(), pkg)) {
      return false;
    }
    Result<SessionId> sid = d_.svc->OpenSession("camera");
    if (!sid.ok()) {
      return false;
    }
    sid_ = *sid;
    t->register_s = SecondsSince(t0);
    t0 = NowNs();
    Phase warm;
    for (uint32_t res : kRes) {
      Capture(&warm, false, res);
    }
    t->warm_s = SecondsSince(t0);
    if (d_.timed != nullptr) {
      d_.timed->Arm(spans_);
    }
    return warm.failed == 0;
  }

  void RunGroup(Phase* ph, bool in_prefix) override {
    Capture(ph, in_prefix, kRes[rng_.Below(3)]);
  }

  size_t prefix_groups() const override { return 1000; }

  uint64_t InputDigest(size_t groups) const override {
    Rng r(seed_);
    uint64_t h = kFnvSeed;
    for (size_t g = 0; g < groups; ++g) {
      uint32_t res = kRes[r.Below(3)];
      h = Fnv1a(h, &res, sizeof res);
    }
    return h;
  }

 private:
  static constexpr uint32_t kRes[3] = {720, 1080, 1440};

  void Capture(Phase* ph, bool in_prefix, uint32_t res) {
    bool traced = ph->traced && d_.timed != nullptr;
    ReplayArgs args;
    args.scalars = {{"frame", 1}, {"resolution", res}, {"buf_size", buf_.size()}};
    args.buffers["buf"] = BufferView{buf_.data(), buf_.size()};
    args.buffers["img_size"] = BufferView{img_size_.data(), img_size_.size()};
    uint32_t op = op_seq_++;
    StackCounters c0;
    int32_t span = -1;
    if (traced) {
      c0 = Counters(d_, sid_);
      span = spans_ != nullptr ? spans_->Add("workload.capture", NowNs(), 0, -1, op) : -1;
    }
    uint64_t m0 = d_.tb->clock().now_us();
    int64_t t0 = NowNs();
    if (traced) {
      d_.timed->BeginWindow(span, op);
    }
    Result<ReplayStats> r = d_.svc->Invoke(sid_, kCameraEntry, args);
    if (traced) {
      d_.timed->EndWindow();
    }
    int64_t t1 = NowNs();
    uint64_t m1 = d_.tb->clock().now_us();
    ph->wall_ns += t1 - t0;

    const std::vector<uint8_t>& want = expected_[res];
    uint32_t n = 0;
    std::memcpy(&n, img_size_.data(), sizeof n);
    bool ok = r.ok() && n == want.size() && std::memcmp(buf_.data(), want.data(), n) == 0;
    if (in_prefix) {
      ph->digest = Fnv1a(ph->digest, buf_.data(), std::min<size_t>(n, buf_.size()));
      ph->model_elapsed_us += m1 - m0;
    }
    if (traced) {
      AddCounterDelta(c0, Counters(d_, sid_), d_.tb->machine().latency().world_switch_us,
                      &ph->layers);
      Estimate e;
      EstimateInvoke(d_.svc->store(), "camera", kCameraEntry, args.scalars, &e);
      int64_t f0 = NowNs();
      std::vector<uint8_t> frame = Vc4Firmware::MakeFrame(0, res);
      int64_t f1 = NowNs();
      g_sink = g_sink ^ frame[0];
      Attribute(t1 - t0, 0, d_.timed->TakeTotals(), e, f1 - f0, &ph->layers);
      if (spans_ != nullptr && span >= 0) {
        spans_->SetEnd(span, t1);
      }
    }
    RecordOp(ph, t1 - t0, in_prefix, m1 - m0, ok);
  }

  uint64_t seed_;
  Rng rng_;
  Deployment d_;
  SessionId sid_ = 0;
  std::map<uint32_t, std::vector<uint8_t>> expected_;
  std::vector<uint8_t> buf_;
  std::vector<uint8_t> img_size_;
  uint32_t op_seq_ = 0;
};

// ======================================================= secure_ops_ring ====

// One client drives three sessions of one service — fTPM, cryptoacc and MMC
// 1-block IO — through each session's invocation ring in batches of 8: push
// x8, one doorbell, pop x8. An op is one ring command, timed from its push to
// its pop.
class SecureOpsRing : public Workload {
 public:
  explicit SecureOpsRing(uint64_t seed) : seed_(seed), rng_(seed) {}

  bool Setup(bool traced, SetupTimes* t) override {
    gold_ = std::make_unique<FtpmGold>();
    int64_t t0 = NowNs();
    std::vector<uint8_t> pkgs[3] = {BuildMmcPackage(), BuildFtpmPackage(),
                                    BuildCryptoaccPackage()};
    t->record_s = SecondsSince(t0);
    t0 = NowNs();
    d_ = NewDeployment(traced);
    t->testbed_s = SecondsSince(t0);
    t0 = NowNs();
    static const char* const kNames[3] = {"mmc", "ftpm", "cryptoacc"};
    for (int i = 0; i < 3; ++i) {
      if (!Register(d_.svc.get(), pkgs[i])) {
        return false;
      }
      Result<SessionId> sid = d_.svc->OpenSession(kNames[i]);
      if (!sid.ok()) {
        return false;
      }
      sid_[i] = *sid;
    }
    t->register_s = SecondsSince(t0);
    t0 = NowNs();
    Phase warm;
    Rng warm_rng(seed_ ^ 0x5741524d);  // warm-up inputs stay off the measured stream
    for (int round = 0; round < 2; ++round) {
      for (int cls = 0; cls < 3; ++cls) {
        RunBatch(&warm, false, cls, warm_rng);
      }
    }
    t->warm_s = SecondsSince(t0);
    if (d_.timed != nullptr) {
      d_.timed->Arm(spans_);
    }
    return warm.failed == 0;
  }

  void RunGroup(Phase* ph, bool in_prefix) override {
    int cls = static_cast<int>(rng_.Below(3));
    RunBatch(ph, in_prefix, cls, rng_);
  }

  size_t prefix_groups() const override { return 2000; }

  uint64_t InputDigest(size_t groups) const override {
    Rng r(seed_);
    uint64_t h = kFnvSeed;
    std::array<Cmd, kBatch> cmds;
    for (size_t g = 0; g < groups; ++g) {
      int cls = static_cast<int>(r.Below(3));
      Generate(cls, r, &cmds);
      for (const Cmd& c : cmds) {
        h = InputFold(h, c);
      }
    }
    return h;
  }

 private:
  static constexpr size_t kBatch = 8;
  static constexpr uint64_t kMmcBase = 0x8000;  // 64 8-aligned 1-block slots
  static constexpr uint64_t kMmcSlots = 64;

  static void Generate(int cls, Rng& r, std::array<Cmd, kBatch>* cmds) {
    for (Cmd& c : *cmds) {
      c = Cmd{};
    }
    if (cls == 0) {
      for (Cmd& c : *cmds) {
        GenMmc(r, kMmcBase, kMmcSlots, 1, &c);
      }
    } else if (cls == 1) {
      for (Cmd& c : *cmds) {
        GenFtpm(r, &c);
      }
    } else {
      // Encrypt/decrypt round trips (decrypt reads the encrypt's output within
      // the same batch, which executes in push order) and digests.
      size_t n = 0;
      while (n < kBatch) {
        if (n + 1 < kBatch && r.Below(3) != 0) {
          GenCipher(r, kCaOpEncrypt, &(*cmds)[n]);
          MakeDecrypt((*cmds)[n], &(*cmds)[n + 1]);
          n += 2;
        } else {
          GenDigest(r, &(*cmds)[n]);
          n += 1;
        }
      }
    }
  }

  void RunBatch(Phase* ph, bool in_prefix, int cls, Rng& r) {
    bool traced = ph->traced && d_.timed != nullptr;
    Generate(cls, r, &cmds_);
    for (Cmd& c : cmds_) {
      PrepareExpect(&shadow_, &c);
    }
    SessionId sid = sid_[cls];
    uint32_t op = op_seq_++;
    StackCounters c0;
    int32_t span = -1;
    if (traced) {
      c0 = Counters(d_, sid);
      span = spans_ != nullptr ? spans_->Add("workload.ring_batch", NowNs(), 0, -1, op) : -1;
    }
    std::array<int64_t, kBatch> pushed{};
    std::array<int64_t, kBatch> popped{};
    bool ok = true;
    int64_t ring_ns = 0;
    uint64_t m0 = d_.tb->clock().now_us();
    int64_t t0 = NowNs();
    for (size_t i = 0; i < kBatch; ++i) {
      pushed[i] = NowNs();
      ok = d_.svc->RingPush(sid, cmds_[i].entry(), cmds_[i].Args()).ok() && ok;
      ring_ns += NowNs() - pushed[i];
    }
    if (traced) {
      d_.timed->BeginWindow(span, op);
    }
    Result<size_t> ran = d_.svc->RingDoorbell(sid);
    if (traced) {
      d_.timed->EndWindow();
    }
    ok = ok && ran.ok() && *ran == kBatch;
    for (size_t i = 0; i < kBatch; ++i) {
      int64_t p0 = NowNs();
      Result<RingCompletion> c = d_.svc->RingPop(sid);
      popped[i] = NowNs();
      ring_ns += popped[i] - p0;
      ok = ok && c.ok() && c->result.ok();
    }
    int64_t t1 = NowNs();
    uint64_t m1 = d_.tb->clock().now_us();
    ph->wall_ns += t1 - t0;
    if (in_prefix) {
      ph->model_elapsed_us += m1 - m0;
    }
    for (size_t i = 0; i < kBatch; ++i) {
      bool cmd_ok = CheckCmd(cmds_[i], gold_.get(), in_prefix, &ph->digest) && ok;
      // The client can reap a command only once the doorbell returned, so in
      // model time every command of a batch waits for the whole batch.
      RecordOp(ph, popped[i] - pushed[i], in_prefix, m1 - m0, cmd_ok);
    }
    if (traced) {
      AddCounterDelta(c0, Counters(d_, sid), d_.tb->machine().latency().world_switch_us,
                      &ph->layers);
      Estimate e;
      for (const Cmd& c : cmds_) {
        EstimateInvoke(d_.svc->store(), c.driverlet(), c.entry(), c.Scalars(), &e);
      }
      Attribute(t1 - t0, ring_ns, d_.timed->TakeTotals(), e, 0, &ph->layers);
      ph->layers.ring_cmds += kBatch;
      if (spans_ != nullptr && span >= 0) {
        spans_->SetEnd(span, t1);
      }
    }
  }

  uint64_t seed_;
  Rng rng_;
  Deployment d_;
  SessionId sid_[3] = {};
  std::unique_ptr<FtpmGold> gold_;
  std::map<uint64_t, std::vector<uint8_t>> shadow_;
  std::array<Cmd, kBatch> cmds_;
  uint32_t op_seq_ = 0;
};

// ============================================================ fleet_mixed ====

// A ReplayFleet of 2 shards and 2 workers serves 8 sessions (MMC 8-block,
// fTPM, cryptoacc) at pace 0. The submitting thread keeps one request
// outstanding per session: it polls for completions and resubmits a session
// as soon as its completion is taken, so the workers never run dry. An op is
// one request, timed from Submit to the completion being taken. A group is an
// epoch of kRounds requests per session, generated (with its references)
// before the epoch starts; the fleet drains at the end of every epoch.
//
// Shards run separate model clocks. Between epochs the fleet is idle, so the
// shard clocks can be read without racing the workers: a request's model time
// is its shard's model time over the epoch divided by the requests the shard
// ran, and model throughput uses the slower shard's clock.
class FleetMixed : public Workload {
 public:
  explicit FleetMixed(uint64_t seed) : seed_(seed) {}

  ~FleetMixed() override {
    if (fleet_ != nullptr) {
      fleet_->Stop();
    }
  }

  bool Setup(bool /*traced*/, SetupTimes* t) override {
    InitSessions(seed_, &sessions_);
    for (Session& s : sessions_) {
      if (s.cls == Cls::kFtpm) {
        s.gold = std::make_unique<FtpmGold>();
      }
    }
    int64_t t0 = NowNs();
    std::vector<uint8_t> pkgs[3] = {BuildMmcPackage(), BuildFtpmPackage(),
                                    BuildCryptoaccPackage()};
    t->record_s = SecondsSince(t0);
    t0 = NowNs();
    ReplayFleetConfig cfg;
    cfg.shards = kShards;
    cfg.threads = kShards;
    cfg.invoke_floor_us = 0;
    fleet_ = std::make_unique<ReplayFleet>(kDeveloperKey, cfg);
    t->testbed_s = SecondsSince(t0);
    t0 = NowNs();
    for (const std::vector<uint8_t>& pkg : pkgs) {
      if (pkg.empty() || !fleet_->RegisterDriverlet(pkg.data(), pkg.size()).ok()) {
        return false;
      }
    }
    for (size_t i = 0; i < sessions_.size(); ++i) {
      Session& s = sessions_[i];
      Cmd probe;
      probe.cls = s.cls;
      Result<FleetSessionId> id = fleet_->OpenSessionOn(s.shard, probe.driverlet());
      if (!id.ok()) {
        return false;
      }
      s.id = *id;
    }
    fleet_->Start();
    t->register_s = SecondsSince(t0);
    t0 = NowNs();
    Phase warm;
    RunGroup(&warm, false);
    t->warm_s = SecondsSince(t0);
    last_counters_ = StackTotals();
    return warm.failed == 0;
  }

  void RunGroup(Phase* ph, bool in_prefix) override {
    const size_t n = sessions_.size();
    for (Session& s : sessions_) {
      NewEpoch(&s);
    }
    FleetStats f0 = fleet_->stats();
    std::array<uint64_t, kShards> m0{};
    for (size_t s = 0; s < kShards; ++s) {
      m0[s] = fleet_->shard_testbed(s).clock().now_us();
    }
    struct Done {
      size_t session;
      size_t round;
      int64_t submitted;
      int64_t taken;
      bool ok;
    };
    std::vector<Done> done;
    done.reserve(n * kRounds);
    std::vector<size_t> round(n, 0);
    std::vector<uint64_t> req(n, 0);
    std::vector<int64_t> submitted(n, 0);
    std::vector<bool> pending(n, false);
    size_t outstanding = 0;
    int64_t submit_ns = 0;
    // Submits session |i|'s next command; a refused submit completes at once
    // as a failed op.
    auto submit = [&](size_t i) {
      while (round[i] < kRounds) {
        Cmd& c = sessions_[i].cmds[1 + round[i]];
        int64_t s0 = NowNs();
        Result<uint64_t> r = fleet_->Submit(sessions_[i].id, c.entry(), c.Args());
        int64_t s1 = NowNs();
        submit_ns += s1 - s0;
        if (r.ok()) {
          submitted[i] = s0;
          req[i] = *r;
          pending[i] = true;
          ++outstanding;
          return;
        }
        done.push_back(Done{i, round[i]++, s0, s1, false});
      }
    };
    int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      submit(i);
    }
    while (outstanding > 0) {
      bool progressed = false;
      for (size_t i = 0; i < n; ++i) {
        if (!pending[i]) {
          continue;
        }
        Result<ReplayStats> r = fleet_->TakeCompletion(req[i]);
        if (r.status() == Status::kNotFound) {
          continue;
        }
        int64_t taken = NowNs();
        pending[i] = false;
        --outstanding;
        progressed = true;
        done.push_back(Done{i, round[i]++, submitted[i], taken, r.ok()});
        submit(i);
      }
      if (!progressed) {
        std::this_thread::yield();
      }
    }
    int64_t t1 = NowNs();
    ph->wall_ns += t1 - t0;
    ph->layers.submit_ns += submit_ns;
    ph->layers.submits += done.size();

    std::array<uint64_t, kShards> dm{};
    std::array<uint64_t, kShards> per_shard{};
    for (size_t s = 0; s < kShards; ++s) {
      dm[s] = fleet_->shard_testbed(s).clock().now_us() - m0[s];
    }
    for (const Session& s : sessions_) {
      per_shard[s.shard] += kRounds;
    }
    if (in_prefix) {
      ph->model_elapsed_us += *std::max_element(dm.begin(), dm.end());
    }
    // Check in per-session order (the fTPM reference replays the stream).
    std::vector<std::vector<bool>> right(n, std::vector<bool>(kRounds, false));
    for (size_t i = 0; i < n; ++i) {
      Session& s = sessions_[i];
      for (size_t r = 0; r < kRounds; ++r) {
        right[i][r] = CheckCmd(s.cmds[1 + r], s.gold.get(), in_prefix, &s.digest);
      }
      if (in_prefix) {
        ph->digest = Fnv1a(ph->digest, &s.digest, sizeof s.digest);
      }
    }
    for (const Done& d : done) {
      size_t shard = sessions_[d.session].shard;
      RecordOp(ph, d.taken - d.submitted, in_prefix, dm[shard] / per_shard[shard],
               d.ok && right[d.session][d.round]);
    }
    if (ph->traced) {
      FleetStats f1 = fleet_->stats();
      LayerTotals& lt = ph->layers;
      lt.fleet_submitted += f1.submitted - f0.submitted;
      lt.fleet_executed += f1.executed - f0.executed;
      lt.fleet_stolen += f1.stolen - f0.stolen;
      lt.fleet_busy += f1.busy_rejects - f0.busy_rejects;
      // Per-worker load: worker w is home to shard w and runs what it did not
      // lose to the other worker, plus what it stole.
      for (size_t s = 0; s < kShards; ++s) {
        uint64_t exec = f1.shards[s].executed - f0.shards[s].executed;
        uint64_t stolen = f1.shards[s].stolen - f0.shards[s].stolen;
        worker_ops_[s] += exec - stolen;
        worker_ops_[(s + 1) % kShards] += stolen;
      }
      double mean = static_cast<double>(worker_ops_[0] + worker_ops_[1]) / kShards;
      lt.shard_imbalance =
          mean > 0 ? static_cast<double>(std::max(worker_ops_[0], worker_ops_[1])) / mean - 1
                   : 0;
      StackCounters c = StackTotals();
      AddCounterDelta(last_counters_, c,
                      fleet_->shard_testbed(0).machine().latency().world_switch_us, &lt);
      last_counters_ = c;
      lt.op_ns += t1 - t0;
      lt.unattributed_ns += (t1 - t0) - submit_ns;
      if (spans_ != nullptr) {
        int32_t span = spans_->Add("workload.fleet_epoch", t0, t1, -1, epoch_seq_);
        for (const Done& d : done) {
          spans_->Add("tee.fleet.request", d.submitted, d.taken, span, epoch_seq_);
        }
      }
    }
    ++epoch_seq_;
  }

  size_t prefix_groups() const override { return 64; }

  bool model_exact() const override { return false; }

  uint64_t InputDigest(size_t groups) const override {
    std::vector<Session> sessions;
    InitSessions(seed_, &sessions);
    uint64_t h = kFnvSeed;
    for (size_t g = 0; g < groups; ++g) {
      for (Session& s : sessions) {
        NewEpoch(&s);
        for (size_t r = 0; r < kRounds; ++r) {
          h = InputFold(h, s.cmds[1 + r]);
        }
      }
    }
    return h;
  }

 private:
  static constexpr size_t kShards = 2;
  static constexpr size_t kRounds = 16;  // requests per session per epoch

  struct Session {
    Cls cls = Cls::kMmc;
    size_t shard = 0;
    FleetSessionId id = 0;
    uint64_t base = 0;  // MMC: first blkid of this session's region
    uint64_t step = 0;
    Rng rng{0};
    // The previous epoch's last command, then this epoch's kRounds.
    std::deque<Cmd> cmds;
    std::map<uint64_t, std::vector<uint8_t>> shadow;
    std::unique_ptr<FtpmGold> gold;
    uint64_t digest = kFnvSeed;
  };

  // Each shard gets two MMC sessions, one fTPM and one cryptoacc session. One
  // fTPM session per shard keeps that shard's fTPM command order, and so its
  // responses, a function of the seed.
  static void InitSessions(uint64_t seed, std::vector<Session>* out) {
    static const Cls kCls[8] = {Cls::kMmc, Cls::kFtpm, Cls::kCrypto, Cls::kMmc,
                                Cls::kFtpm, Cls::kCrypto, Cls::kMmc, Cls::kMmc};
    out->clear();
    out->resize(8);
    Rng root(seed);
    for (size_t i = 0; i < 8; ++i) {
      Session& s = (*out)[i];
      s.cls = kCls[i];
      s.shard = i % kShards;
      s.base = 0x10000 * (i + 1);
      s.rng = Rng(root.Next());
    }
  }

  // Service counters summed over the shards. Read only between epochs, when
  // no worker is running a request.
  StackCounters StackTotals() const {
    StackCounters c;
    for (size_t s = 0; s < kShards; ++s) {
      AddStore(fleet_->shard_service(s).store(), &c);
      c.switches += fleet_->shard_testbed(s).tee().world_switches();
    }
    for (const Session& s : sessions_) {
      AddSession(fleet_->shard_service(s.shard), FleetLocalSession(s.id), &c);
    }
    return c;
  }

  // Drops the previous epoch's commands but its last (a decrypt may read its
  // output), then generates this epoch's kRounds commands with references.
  static void NewEpoch(Session* s) {
    while (s->cmds.size() > 1) {
      s->cmds.pop_front();
    }
    if (s->cmds.empty()) {
      s->cmds.emplace_back();  // placeholder: no command precedes the first epoch
    }
    for (size_t r = 0; r < kRounds; ++r) {
      NextCmd(s);
    }
  }

  static void NextCmd(Session* s) {
    s->cmds.emplace_back();
    Cmd& c = s->cmds.back();
    switch (s->cls) {
      case Cls::kMmc:
        GenMmc(s->rng, s->base, 32, 8, &c);
        break;
      case Cls::kFtpm:
        GenFtpm(s->rng, &c);
        break;
      case Cls::kCrypto:
        // encrypt, decrypt of that encrypt's output, digest, repeat.
        if (s->step % 3 == 0) {
          GenCipher(s->rng, kCaOpEncrypt, &c);
        } else if (s->step % 3 == 1) {
          MakeDecrypt(s->cmds[s->cmds.size() - 2], &c);
        } else {
          GenDigest(s->rng, &c);
        }
        break;
    }
    PrepareExpect(&s->shadow, &c);
    ++s->step;
  }

  uint64_t seed_;
  std::vector<Session> sessions_;
  std::unique_ptr<ReplayFleet> fleet_;
  uint64_t worker_ops_[kShards] = {};
  StackCounters last_counters_;
  uint32_t epoch_seq_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"sqlite_mmc", "camera_capture",
                                                  "secure_ops_ring", "fleet_mixed"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "sqlite_mmc") {
    return std::make_unique<SqliteMmc>(seed);
  }
  if (name == "camera_capture") {
    return std::make_unique<CameraCapture>(seed);
  }
  if (name == "secure_ops_ring") {
    return std::make_unique<SecureOpsRing>(seed);
  }
  if (name == "fleet_mixed") {
    return std::make_unique<FleetMixed>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
