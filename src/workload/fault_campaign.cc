#include "src/workload/fault_campaign.h"

#include <cstdarg>
#include <cstring>

#include "src/drv/bcm_sdhost_driver.h"
#include "src/fault/fault_injector.h"
#include "src/workload/deploy_util.h"

namespace dlt {

namespace {

// One write-then-readback-verify op against a block driverlet. Status alone is
// not enough: DMA corruption is silent at the replay layer (constraints cover
// control-flow inputs, not payload bytes — docs/fault_injection.md), so the
// campaign verifies content end to end.
struct OpOutcome {
  bool recovered = false;
  bool retried = false;
  bool data_error = false;
  bool quarantined = false;
  uint64_t attempts = 0;
};

OpOutcome RunBlockOp(Deployment& d, const char* entry, uint64_t seed, int op) {
  OpOutcome out;
  uint64_t blkid = 2048 + static_cast<uint64_t>(op) * 64;
  std::vector<uint8_t> pattern = PatternBuf(8 * 512, seed * 1000 + static_cast<uint64_t>(op));
  ReplayArgs wargs;
  wargs.scalars = {{"rw", kMmcRwWrite}, {"blkcnt", 8}, {"blkid", blkid}, {"flag", 0}};
  wargs.ro_buffers["buf"] = ConstBufferView{pattern.data(), pattern.size()};
  Result<ReplayStats> w = d.service->Invoke(d.session, entry, wargs);
  if (!w.ok()) {
    out.quarantined = w.status() == Status::kQuarantined;
    return out;
  }
  out.attempts += w->attempts;
  std::vector<uint8_t> readback(8 * 512, 0);
  ReplayArgs rargs;
  rargs.scalars = {{"rw", kMmcRwRead}, {"blkcnt", 8}, {"blkid", blkid}, {"flag", 0}};
  rargs.buffers["buf"] = BufferView{readback.data(), readback.size()};
  Result<ReplayStats> r = d.service->Invoke(d.session, entry, rargs);
  if (!r.ok()) {
    out.quarantined = r.status() == Status::kQuarantined;
    return out;
  }
  out.attempts += r->attempts;
  if (readback != pattern) {
    out.data_error = true;
    return out;
  }
  out.recovered = true;
  out.retried = w->attempts > 1 || r->attempts > 1;
  return out;
}

// GetRandom at a covered length: content is DRBG output so the end-to-end
// check is shape, not bytes — the response window must be written and the
// tail must stay untouched.
OpOutcome RunFtpmOp(Deployment& d, uint64_t seed, int op) {
  OpOutcome out;
  uint64_t arg = 32 + ((seed + static_cast<uint64_t>(op)) % 8) * 32;
  std::vector<uint8_t> req(kFtpmPcrBytes, 0);
  std::vector<uint8_t> rsp(kFtpmMaxRandom, 0);
  ReplayArgs args;
  args.scalars = {{"ord", kFtpmOrdGetRandom}, {"arg", arg}};
  args.ro_buffers["req"] = ConstBufferView{req.data(), req.size()};
  args.buffers["rsp"] = BufferView{rsp.data(), rsp.size()};
  Result<ReplayStats> r = d.service->Invoke(d.session, kFtpmEntry, args);
  if (!r.ok()) {
    out.quarantined = r.status() == Status::kQuarantined;
    return out;
  }
  out.attempts = r->attempts;
  bool payload_written = false;
  for (uint64_t i = 0; i < arg; ++i) {
    payload_written |= rsp[i] != 0;
  }
  bool tail_clean = true;
  for (size_t i = arg; i < rsp.size(); ++i) {
    tail_clean &= rsp[i] == 0;
  }
  if (!payload_written || !tail_clean) {
    out.data_error = true;
    return out;
  }
  out.recovered = true;
  out.retried = r->attempts > 1;
  return out;
}

// Encrypt-then-decrypt round trip through the descriptor ring: like the block
// classes, payload corruption is silent at the replay layer, so the campaign
// verifies the plaintext comes back byte-identical.
OpOutcome RunCryptoaccOp(Deployment& d, uint64_t seed, int op) {
  OpOutcome out;
  uint64_t key = 0xc0ffee00 + (seed % 16);
  std::vector<uint8_t> pattern =
      PatternBuf(kCryptoChunkBytes, seed * 1000 + static_cast<uint64_t>(op));
  std::vector<uint8_t> ct(pattern.size(), 0);
  ReplayArgs eargs;
  eargs.scalars = {{"op", kCaOpEncrypt}, {"key", key}, {"len", pattern.size()}};
  eargs.ro_buffers["buf"] = ConstBufferView{pattern.data(), pattern.size()};
  eargs.buffers["out"] = BufferView{ct.data(), ct.size()};
  Result<ReplayStats> e = d.service->Invoke(d.session, kCryptoaccEntry, eargs);
  if (!e.ok()) {
    out.quarantined = e.status() == Status::kQuarantined;
    return out;
  }
  out.attempts += e->attempts;
  std::vector<uint8_t> rt(pattern.size(), 0);
  ReplayArgs dargs;
  dargs.scalars = {{"op", kCaOpDecrypt}, {"key", key}, {"len", ct.size()}};
  dargs.ro_buffers["buf"] = ConstBufferView{ct.data(), ct.size()};
  dargs.buffers["out"] = BufferView{rt.data(), rt.size()};
  Result<ReplayStats> dec = d.service->Invoke(d.session, kCryptoaccEntry, dargs);
  if (!dec.ok()) {
    out.quarantined = dec.status() == Status::kQuarantined;
    return out;
  }
  out.attempts += dec->attempts;
  if (rt != pattern) {
    out.data_error = true;
    return out;
  }
  out.recovered = true;
  out.retried = e->attempts > 1 || dec->attempts > 1;
  return out;
}

OpOutcome RunCameraOp(Deployment& d, uint64_t /*seed*/, int /*op*/) {
  OpOutcome out;
  std::vector<uint8_t> buf(Vc4Firmware::FrameBytes(1440) + 4096);
  std::vector<uint8_t> img_size(4, 0);
  ReplayArgs args;
  args.scalars = {{"frame", 1}, {"resolution", 720}, {"buf_size", buf.size()}};
  args.buffers["buf"] = BufferView{buf.data(), buf.size()};
  args.buffers["img_size"] = BufferView{img_size.data(), img_size.size()};
  Result<ReplayStats> r = d.service->Invoke(d.session, kCameraEntry, args);
  if (!r.ok()) {
    out.quarantined = r.status() == Status::kQuarantined;
    return out;
  }
  out.attempts = r->attempts;
  uint32_t size = 0;
  std::memcpy(&size, img_size.data(), 4);
  if (size == 0) {
    out.data_error = true;
    return out;
  }
  out.recovered = true;
  out.retried = r->attempts > 1;
  return out;
}

FaultMatrixCell RunCell(FaultPlane plane, const std::string& driverlet, uint64_t seed,
                        const std::vector<uint8_t>& pkg, const FaultMatrixConfig& cfg) {
  FaultMatrixCell cell;
  cell.plane = plane;
  cell.driverlet = driverlet;
  cell.seed = seed;

  ReplayServiceConfig scfg;
  scfg.retry_backoff_us = cfg.retry_backoff_us;
  scfg.quarantine_threshold = cfg.quarantine_threshold;
  Deployment d = MakeDeployment(pkg, scfg);
  if (d.session == 0) {
    return cell;  // registration failed; zero-op cell is visible in the matrix
  }

  FaultTargets targets;
  if (driverlet == "mmc") {
    targets.device = d.tb->mmc_id();
    targets.dma_via_engine = true;
  } else if (driverlet == "usb") {
    targets.device = d.tb->usb_id();
    targets.dma_via_engine = false;
  } else if (driverlet == "ftpm") {
    targets.device = d.tb->ftpm_id();
    targets.dma_via_engine = false;
  } else if (driverlet == "cryptoacc") {
    // The crypto engine masters its own descriptor ring, so its DMA plane is
    // the device itself, not the system engine.
    targets.device = d.tb->crypto_id();
    targets.dma_via_engine = false;
  } else {
    targets.device = d.tb->vchiq_id();
    targets.dma_via_engine = false;
  }

  FaultInjector injector(&d.tb->machine());
  FaultPlan plan = MakePresetPlan(plane, seed, targets);
  if (!Ok(injector.Arm(plan))) {
    return cell;
  }

  for (int op = 0; op < cfg.ops_per_cell; ++op) {
    OpOutcome out;
    if (driverlet == "camera") {
      out = RunCameraOp(d, seed, op);
    } else if (driverlet == "ftpm") {
      out = RunFtpmOp(d, seed, op);
    } else if (driverlet == "cryptoacc") {
      out = RunCryptoaccOp(d, seed, op);
    } else {
      out = RunBlockOp(d, driverlet == "mmc" ? kMmcEntry : kUsbEntry, seed, op);
    }
    ++cell.ops;
    cell.attempts += out.attempts;
    if (out.recovered) {
      ++cell.recovered;
      if (out.retried) {
        ++cell.retried;
      }
    } else {
      ++cell.failed;
      if (out.data_error) {
        ++cell.data_errors;
      }
      if (out.quarantined) {
        // Ladder rung 3 fired: the client's only move is a fresh session.
        d.service->CloseSession(d.session);
        Result<SessionId> sid = d.service->OpenSession(d.driverlet);
        d.session = sid.ok() ? *sid : 0;
        if (d.session == 0) {
          break;
        }
      }
    }
  }

  cell.quarantines = d.service->quarantined_sessions();
  cell.faults_injected = injector.injected_total();
  cell.resets = d.replayer != nullptr ? d.replayer->total_resets() : 0;
  cell.sim_end_us = d.tb->clock().now_us();
  injector.Disarm();
  return cell;
}

}  // namespace

FaultMatrix RunFaultMatrix(const FaultMatrixConfig& cfg) {
  FaultMatrix m;
  m.config = cfg;
  if (m.config.driverlets.empty()) {
    m.config.driverlets = RegisteredDriverletClassNames();
  }

  std::vector<std::pair<std::string, std::vector<uint8_t>>> packages;
  for (const std::string& drv : m.config.driverlets) {
    const DriverletClassSpec* spec = FindDriverletClass(drv);
    if (spec != nullptr) {
      packages.emplace_back(drv, spec->build_package());
    }
  }

  const FaultPlane kPlanes[] = {FaultPlane::kMmio, FaultPlane::kDma, FaultPlane::kIrq};
  for (FaultPlane plane : kPlanes) {
    for (const auto& [drv, pkg] : packages) {
      FaultMatrixSummary sum;
      sum.plane = plane;
      sum.driverlet = drv;
      for (uint64_t seed : cfg.seeds) {
        FaultMatrixCell cell = RunCell(plane, drv, seed, pkg, cfg);
        sum.ops += cell.ops;
        sum.recovered += cell.recovered;
        sum.faults_injected += cell.faults_injected;
        sum.quarantines += cell.quarantines;
        m.cells.push_back(std::move(cell));
      }
      sum.recovery_rate = sum.ops > 0 ? static_cast<double>(sum.recovered) / sum.ops : 0.0;
      m.summary.push_back(std::move(sum));
    }
  }
  return m;
}

namespace {
void Append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}
}  // namespace

std::string FaultMatrixToJson(const FaultMatrix& m) {
  std::string out;
  out += "{\n  \"config\": {\"seeds\": [";
  for (size_t i = 0; i < m.config.seeds.size(); ++i) {
    Append(out, "%s%llu", i == 0 ? "" : ", ",
           static_cast<unsigned long long>(m.config.seeds[i]));
  }
  Append(out, "], \"ops_per_cell\": %d, \"retry_backoff_us\": %llu, "
              "\"quarantine_threshold\": %llu},\n",
         m.config.ops_per_cell, static_cast<unsigned long long>(m.config.retry_backoff_us),
         static_cast<unsigned long long>(m.config.quarantine_threshold));
  out += "  \"matrix\": [\n";
  for (size_t i = 0; i < m.summary.size(); ++i) {
    const FaultMatrixSummary& s = m.summary[i];
    Append(out,
           "    {\"plane\": \"%s\", \"driverlet\": \"%s\", \"ops\": %d, "
           "\"recovered\": %d, \"recovery_rate\": %.4f, \"faults_injected\": %llu, "
           "\"quarantines\": %llu}%s\n",
           FaultPlaneName(s.plane), s.driverlet.c_str(), s.ops, s.recovered,
           s.recovery_rate, static_cast<unsigned long long>(s.faults_injected),
           static_cast<unsigned long long>(s.quarantines),
           i + 1 < m.summary.size() ? "," : "");
  }
  out += "  ],\n  \"cells\": [\n";
  for (size_t i = 0; i < m.cells.size(); ++i) {
    const FaultMatrixCell& c = m.cells[i];
    Append(out,
           "    {\"plane\": \"%s\", \"driverlet\": \"%s\", \"seed\": %llu, "
           "\"ops\": %d, \"recovered\": %d, \"retried\": %d, \"failed\": %d, "
           "\"data_errors\": %llu, \"faults_injected\": %llu, \"resets\": %llu, "
           "\"attempts\": %llu, \"quarantines\": %llu, \"sim_end_us\": %llu}%s\n",
           FaultPlaneName(c.plane), c.driverlet.c_str(),
           static_cast<unsigned long long>(c.seed), c.ops, c.recovered, c.retried,
           c.failed, static_cast<unsigned long long>(c.data_errors),
           static_cast<unsigned long long>(c.faults_injected),
           static_cast<unsigned long long>(c.resets),
           static_cast<unsigned long long>(c.attempts),
           static_cast<unsigned long long>(c.quarantines),
           static_cast<unsigned long long>(c.sim_end_us),
           i + 1 < m.cells.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

void PrintFaultMatrix(const FaultMatrix& m, std::FILE* out) {
  std::fprintf(out, "%-6s %-8s %6s %10s %10s %8s %12s\n", "plane", "driverlet", "ops",
               "recovered", "rate", "faults", "quarantines");
  for (const FaultMatrixSummary& s : m.summary) {
    std::fprintf(out, "%-6s %-8s %6d %10d %9.1f%% %8llu %12llu\n", FaultPlaneName(s.plane),
                 s.driverlet.c_str(), s.ops, s.recovered, 100.0 * s.recovery_rate,
                 static_cast<unsigned long long>(s.faults_injected),
                 static_cast<unsigned long long>(s.quarantines));
  }
}

}  // namespace dlt
