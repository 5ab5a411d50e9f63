// driverletc: command-line driverlet toolchain.
//
//   driverletc record <mmc|usb|camera|ftpm|cryptoacc|display|touch> -o pkg.dlt [--binary]
//       Runs the device's record campaign on a simulated developer machine and
//       writes the sealed (compressed + signed) driverlet package. The first
//       five names come from the registered-class table
//       (RegisteredDriverletClasses() in src/workload/deploy_util.h).
//   driverletc inspect <pkg.dlt>
//       Verifies the signature and prints the template inventory + coverage.
//   driverletc verify <pkg.dlt>
//       Signature/integrity check only; exit status reports the verdict.
//   driverletc smoke <pkg.dlt>
//       Loads the package into a simulated deployment TEE and replays one
//       covered request per entry as a smoke test.
//   driverletc trace <pkg.dlt> -o trace.json
//       Smoke replay with telemetry armed; writes a Chrome trace-event JSON
//       file (open in chrome://tracing or https://ui.perfetto.dev) and prints
//       the metrics summary. See docs/observability.md.
//   driverletc faultsweep [--seeds N] [--base-seed S] [--ops K] [-o matrix.json]
//       Runs the seeded fault-matrix campaign (fault planes x driverlets x
//       seeds) through the recovery policy ladder and prints per-cell recovery
//       rates. Deterministic: same seeds produce byte-identical JSON. See
//       docs/fault_injection.md.
//   driverletc check [--seeds N] [--base-seed S] [--out DIR]
//       Property-based conformance sweep: generates N seeded templates and
//       runs every conformance invariant (determinism, serializer
//       round-trip, store coherence, fault-plane determinism, measurement)
//       against each. Failures are shrunk to minimal templates and written as repro
//       files under DIR (default .). See docs/conformance.md.
//   driverletc check --repro <file>
//       Re-executes a shrunk repro file through the self-relative invariants.
//   driverletc fuzz [--seconds S] [--iters N] [--seed K] [--out DIR] [--no-plant]
//       Coverage-guided fuzz over serialized boundary programs against the
//       replay service (session lifecycle, queued and ring invokes, fault
//       arming, attestation). Violations are ddmin-shrunk and written as
//       .repro files under DIR; unless --no-plant, a short regression phase
//       then arms the planted ring wrap-around reap bug and fails the run if
//       the fuzzer can no longer find and shrink it. See docs/fuzzing.md.
//   driverletc fuzz --repro <file>
//       Re-executes a shrunk boundary repro file.
//   driverletc attest <pkg> [--nonce N] [--invokes K]
//       Loads the package into a deployment TEE, drives K invokes through a
//       session and prints + re-verifies the signed attestation quote over
//       the session's measurement chain. See docs/architecture.md.
//   driverletc fleet <pkg...> [--shards N] [--invokes K] [--no-steal]
//       Stands up a multi-shard replay fleet (one Machine + TEE per shard,
//       worker thread pool, work-stealing dispatch), registers every package
//       on every shard, opens one session per package per shard and drives K
//       invokes through the bounded queues; prints the per-shard dispatch
//       table and the wall-clock queue-wait distribution. See
//       docs/replay_fleet.md.
//   driverletc ring <pkg> [--count K] [--batch N[,N...]]
//       Drives K commands through the per-session invocation ring at each
//       commands-per-doorbell size and prints the world-switch amortization
//       table (switches/command, model time/command, in-batch queue wait).
//       See docs/replay_service.md.
//
// The signing key is fixed (kDeveloperKey) — this mirrors the single developer
// identity of the paper's threat model; a real deployment would provision keys.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "src/check/conformance.h"
#include "src/check/fuzz.h"
#include "src/core/executor.h"
#include "src/core/replayer.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/telemetry.h"
#include "src/tee/replay_fleet.h"
#include "src/workload/deploy_util.h"
#include "src/workload/fault_campaign.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"

using namespace dlt;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: driverletc record <mmc|usb|camera|ftpm|cryptoacc|display|touch>"
               " -o <pkg> [--binary]\n"
               "       driverletc inspect <pkg>\n"
               "       driverletc verify <pkg>\n"
               "       driverletc smoke <pkg>\n"
               "       driverletc trace <pkg> -o <trace.json>\n"
               "       driverletc faultsweep [--seeds N] [--base-seed S] [--ops K]"
               " [-o <matrix.json>]\n"
               "       driverletc check [--seeds N] [--base-seed S] [--out <dir>]\n"
               "       driverletc check --repro <file>\n"
               "       driverletc fuzz [--seconds S] [--iters N] [--seed K] [--out <dir>]"
               " [--no-plant]\n"
               "       driverletc fuzz --repro <file>\n"
               "       driverletc attest <pkg> [--nonce N] [--invokes K]\n"
               "       driverletc fleet <pkg...> [--shards N] [--invokes K] [--no-steal]\n"
               "       driverletc ring <pkg> [--count K] [--batch N[,N...]]\n");
  return 2;
}

Result<std::vector<uint8_t>> ReadFile(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::kNotFound;
  }
  std::vector<uint8_t> data((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  return data;
}

int CmdRecord(int argc, char** argv) {
  const char* device = nullptr;
  const char* out = nullptr;
  PackageFormat format = PackageFormat::kText;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--binary") == 0) {
      format = PackageFormat::kBinary;
    } else if (device == nullptr) {
      device = argv[i];
    } else {
      return Usage();
    }
  }
  if (device == nullptr || out == nullptr) {
    return Usage();
  }
  std::printf("recording the %s campaign on a simulated developer machine...\n", device);
  Rpi3Testbed dev{TestbedOptions{}};
  // Registered classes come from the class table; display/touch are
  // recordable peripherals that are not part of the registered sweep list.
  const DriverletClassSpec* spec = FindDriverletClass(device);
  Result<RecordCampaign> campaign =
      spec != nullptr                       ? spec->record(&dev)
      : std::strcmp(device, "display") == 0 ? RecordDisplayCampaign(&dev)
      : std::strcmp(device, "touch") == 0   ? RecordTouchCampaign(&dev)
                                            : Result<RecordCampaign>(Status::kInvalidArg);
  if (!campaign.ok()) {
    std::fprintf(stderr, "campaign failed: %s\n", StatusName(campaign.status()));
    return 1;
  }
  PackageSizes sizes;
  std::vector<uint8_t> sealed = campaign->Seal(format, kDeveloperKey, &sizes);
  std::ofstream of(out, std::ios::binary);
  if (!of.write(reinterpret_cast<const char*>(sealed.data()),
                static_cast<std::streamsize>(sealed.size()))) {
    std::fprintf(stderr, "cannot write %s\n", out);
    return 1;
  }
  std::printf("%zu templates, coverage: %s\n", campaign->templates().size(),
              campaign->CoverageReport().c_str());
  std::printf("wrote %s: %zu bytes (%s, %zu uncompressed)\n", out, sizes.sealed,
              format == PackageFormat::kBinary ? "binary" : "text", sizes.serialized);
  return 0;
}

int CmdInspect(const char* path) {
  Result<std::vector<uint8_t>> data = ReadFile(path);
  if (!data.ok()) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  Result<DriverletPackage> pkg = OpenPackage(data->data(), data->size(), kDeveloperKey);
  if (!pkg.ok()) {
    std::fprintf(stderr, "%s: signature/integrity check FAILED\n", path);
    return 1;
  }
  std::printf("driverlet \"%s\": %zu templates, signature OK\n", pkg->driverlet.c_str(),
              pkg->templates.size());
  std::printf("coverage: %s\n", CoverageReport(ComputeCoverage(pkg->templates)).c_str());
  for (const auto& t : pkg->templates) {
    EventBreakdown b = t.CountEvents();
    std::printf("  %-12s entry=%-16s %4d in / %4d out / %3d meta\n", t.name.c_str(),
                t.entry.c_str(), b.input, b.output, b.meta);
  }
  return 0;
}

int CmdVerify(const char* path) {
  Result<std::vector<uint8_t>> data = ReadFile(path);
  if (!data.ok()) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  Result<DriverletPackage> pkg = OpenPackage(data->data(), data->size(), kDeveloperKey);
  std::printf("%s: %s\n", path, pkg.ok() ? "OK" : "FAILED");
  return pkg.ok() ? 0 : 1;
}

// Loads |path| into a deployment TEE and replays one covered request for its
// first entry. Shared by `smoke` (correctness check) and `trace` (telemetry).
int ReplayOnce(const char* path) {
  Result<std::vector<uint8_t>> data = ReadFile(path);
  if (!data.ok()) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  TestbedOptions opts;
  opts.secure_io = true;
  opts.probe_drivers = false;
  Rpi3Testbed machine{opts};
  Replayer replayer(&machine.tee(), kDeveloperKey);
  if (!Ok(replayer.LoadPackage(data->data(), data->size()))) {
    std::fprintf(stderr, "package rejected by the TEE\n");
    return 1;
  }
  const std::string entry = replayer.templates().front()->entry;
  std::printf("replaying entry %s on a simulated deployment machine...\n", entry.c_str());

  ReplayArgs args;
  std::vector<uint8_t> buf;
  std::vector<uint8_t> aux;
  if (entry == kTouchEntry) {
    // Touch is the one entry the shared table cannot drive: its covered
    // invoke consumes an injected input event.
    machine.touch().InjectTouch(100, 100, 1'000);
    buf.assign(4, 0);
    args.buffers["evt"] = BufferView{buf.data(), buf.size()};
  } else if (!CoveredArgsFor(entry, 0, &buf, &aux, &args)) {
    std::fprintf(stderr, "unknown entry %s\n", entry.c_str());
    return 1;
  }
  Result<ReplayStats> r = replayer.Invoke(entry, args);
  if (!r.ok()) {
    std::fprintf(stderr, "replay failed: %s\n", StatusName(r.status()));
    const DivergenceReport& rep = replayer.last_report();
    if (rep.valid) {
      std::fprintf(stderr, "  diverged at #%zu %s (recorded %s:%d)\n", rep.event_index,
                   rep.event_desc.c_str(), rep.file.c_str(), rep.line);
    }
    return 1;
  }
  std::printf("OK: template %s, %zu events replayed\n", r->template_name.c_str(),
              r->events_executed);
  return 0;
}

int CmdTrace(int argc, char** argv) {
  const char* pkg = nullptr;
  const char* out = nullptr;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (pkg == nullptr) {
      pkg = argv[i];
    } else {
      return Usage();
    }
  }
  if (pkg == nullptr || out == nullptr) {
    return Usage();
  }

  Telemetry& tel = Telemetry::Get();
  tel.Enable(1 << 18);
  tel.Reset();
  int rc = ReplayOnce(pkg);
  if (rc != 0) {
    return rc;  // even a failed replay leaves a trace; but keep the exit honest
  }

  std::vector<TraceEvent> events = tel.ring().Snapshot();
  std::ofstream of(out, std::ios::binary);
  if (!of) {
    std::fprintf(stderr, "cannot write %s\n", out);
    return 1;
  }
  ExportChromeTrace(events, &tel.metrics(), of);
  of.close();
  std::printf("wrote %s: %zu trace events (%llu dropped)\n", out, events.size(),
              static_cast<unsigned long long>(tel.ring().dropped()));
  std::printf("open in chrome://tracing or https://ui.perfetto.dev\n\n%s",
              tel.metrics().Summary().c_str());
  return 0;
}

// Sweeps fault planes x driverlets x seeds through the recovery ladder and
// reports per-cell recovery rates (same engine as bench/fault_matrix).
int CmdFaultSweep(int argc, char** argv) {
  SeedRange seeds;
  int ops = 6;
  const char* out = nullptr;
  for (int i = 2; i < argc; ++i) {
    if (IsSeedRangeFlag(argv[i]) && i + 1 < argc) {
      const char* flag = argv[i];
      ApplySeedRangeFlag(&seeds, flag, argv[++i]);
    } else if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
      ops = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!seeds.valid() || ops < 1) {
    return Usage();
  }

  FaultMatrixConfig cfg;
  cfg.seeds = seeds.List();
  cfg.ops_per_cell = ops;
  cfg.driverlets = RegisteredDriverletClassNames();

  std::printf("fault sweep: %d seeds x 3 planes x %zu driverlets, %d ops/cell\n",
              seeds.count, cfg.driverlets.size(), ops);
  FaultMatrix m = RunFaultMatrix(cfg);
  PrintFaultMatrix(m, stdout);

  if (out != nullptr) {
    std::string json = FaultMatrixToJson(m);
    std::ofstream of(out, std::ios::binary);
    if (!of.write(json.data(), static_cast<std::streamsize>(json.size()))) {
      std::fprintf(stderr, "cannot write %s\n", out);
      return 1;
    }
    std::printf("wrote %s\n", out);
  }
  return 0;
}

// Re-executes a shrunk repro file through the self-relative invariants (no
// baseline: repro files carry no expected output bytes).
int CmdCheckRepro(const char* path) {
  Result<Repro> repro = ReadRepro(path);
  if (!repro.ok()) {
    std::fprintf(stderr, "cannot parse %s: %s\n", path, StatusName(repro.status()));
    return 2;
  }
  std::printf("repro %s: seed %llu, %zu events, recorded invariant '%s'\n", path,
              static_cast<unsigned long long>(repro->c.seed), repro->c.tpl.events.size(),
              repro->invariant.c_str());
  ConformanceOutcome outcome = RunConformance(repro->c, ReproInvariants());
  if (outcome.ok()) {
    std::printf("PASS: all %d invariants hold (the underlying bug is fixed)\n",
                outcome.invariants_run);
    return 0;
  }
  for (const auto& f : outcome.failures) {
    std::printf("FAIL %-20s %s\n", f.invariant.c_str(), f.detail.c_str());
  }
  return 1;
}

// Seeded conformance sweep; shrinks failures and writes repro files.
int CmdCheck(int argc, char** argv) {
  SeedRange seeds;
  seeds.count = 25;
  const char* out_dir = ".";
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repro") == 0 && i + 1 < argc) {
      return CmdCheckRepro(argv[++i]);
    } else if (IsSeedRangeFlag(argv[i]) && i + 1 < argc) {
      const char* flag = argv[i];
      ApplySeedRangeFlag(&seeds, flag, argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!seeds.valid()) {
    return Usage();
  }
  const int num_seeds = seeds.count;

  const std::vector<std::string> invariants = AllInvariants();
  std::printf("conformance sweep: %d seeds from %llu, %zu invariants each\n", num_seeds,
              static_cast<unsigned long long>(seeds.base), invariants.size());
  int failures = 0;
  for (uint64_t seed : seeds.List()) {
    GeneratedCase g = GenerateCase(seed);
    ConformanceOutcome outcome = RunConformance(g, invariants);
    if (outcome.ok()) {
      continue;
    }
    ++failures;
    for (const auto& f : outcome.failures) {
      std::printf("seed %llu FAIL %-20s %s\n", static_cast<unsigned long long>(seed),
                  f.invariant.c_str(), f.detail.c_str());
    }
    Result<ShrinkResult> shrunk = Shrink(g, invariants);
    std::string repro_path =
        std::string(out_dir) + "/conformance_seed" + std::to_string(seed) + ".repro";
    if (shrunk.ok()) {
      std::printf("  shrunk %zu -> %zu events in %d steps (invariant %s)\n",
                  shrunk->original_events, shrunk->reduced.tpl.events.size(), shrunk->steps,
                  shrunk->invariant.c_str());
      if (Ok(WriteRepro(repro_path, shrunk->reduced, shrunk->invariant))) {
        std::printf("  wrote %s\n", repro_path.c_str());
      } else {
        std::fprintf(stderr, "  cannot write %s\n", repro_path.c_str());
      }
    } else if (Ok(WriteRepro(repro_path, g, outcome.failures[0].invariant))) {
      std::printf("  wrote %s (unshrunk)\n", repro_path.c_str());
    }
  }
  std::printf("%d/%d seeds conform\n", num_seeds - failures, num_seeds);
  return failures == 0 ? 0 : 1;
}

// One invoke's worth of covered arguments for a driverlet entry; buffers live
// in |buf|/|aux| and must outlive the completion. Returns false for entries
// the fleet driver cannot synthesize load for (touch needs injected events).
// Delegates to the shared registry-backed table in deploy_util.h.
bool FleetArgsFor(const std::string& entry, int round, std::vector<uint8_t>* buf,
                  std::vector<uint8_t>* aux, ReplayArgs* args) {
  return CoveredArgsFor(entry, round, buf, aux, args);
}

int CmdFleet(int argc, char** argv) {
  std::vector<const char*> paths;
  size_t shards = 4;
  int invokes = 64;
  bool stealing = true;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--invokes") == 0 && i + 1 < argc) {
      invokes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--no-steal") == 0) {
      stealing = false;
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.empty() || shards == 0 || invokes <= 0) {
    return Usage();
  }

  ReplayFleetConfig cfg;
  cfg.shards = shards;
  cfg.stealing = stealing;
  ReplayFleet fleet(kDeveloperKey, cfg);
  std::vector<std::pair<std::string, std::string>> loaded;  // driverlet, entry
  for (const char* path : paths) {
    Result<std::vector<uint8_t>> data = ReadFile(path);
    if (!data.ok()) {
      std::fprintf(stderr, "cannot read %s\n", path);
      return 1;
    }
    Result<std::string> name = fleet.RegisterDriverlet(data->data(), data->size());
    if (!name.ok()) {
      std::fprintf(stderr, "%s rejected: %s\n", path, StatusName(name.status()));
      return 1;
    }
    auto tpls = fleet.shard_service(0).store().templates(*name);
    loaded.emplace_back(*name, tpls.front()->entry);
  }
  std::printf("fleet: %zu shard(s), %zu worker(s), stealing %s\n", fleet.shard_count(),
              fleet.thread_count(), stealing ? "on" : "off");

  // One session per package per shard; skip entries we cannot drive.
  struct Client {
    FleetSessionId sid;
    std::string entry;
    std::vector<uint8_t> buf, aux;
  };
  std::vector<Client> clients;
  for (const auto& [driverlet, entry] : loaded) {
    ReplayArgs probe;
    std::vector<uint8_t> b, a;
    if (!FleetArgsFor(entry, 0, &b, &a, &probe)) {
      std::printf("  %s: no synthetic load for entry %s, skipping\n", driverlet.c_str(),
                  entry.c_str());
      continue;
    }
    for (size_t sh = 0; sh < fleet.shard_count(); ++sh) {
      Result<FleetSessionId> sid = fleet.OpenSessionOn(sh, driverlet);
      if (!sid.ok()) {
        std::fprintf(stderr, "session open failed on shard %zu: %s\n", sh,
                     StatusName(sid.status()));
        return 1;
      }
      clients.push_back(Client{*sid, entry, {}, {}});
    }
  }
  if (clients.empty()) {
    std::fprintf(stderr, "no drivable sessions\n");
    return 1;
  }

  fleet.Start();
  // Rounds of one outstanding invoke per session: submit across every
  // session, then collect, so all shards stay busy without deep backlogs.
  int submitted = 0;
  int failures = 0;
  std::vector<uint64_t> reqs(clients.size(), 0);
  for (int round = 0; submitted < invokes; ++round) {
    for (size_t c = 0; c < clients.size() && submitted < invokes; ++c) {
      ReplayArgs args;
      if (!FleetArgsFor(clients[c].entry, round, &clients[c].buf, &clients[c].aux,
                        &args)) {
        continue;
      }
      Result<uint64_t> req = fleet.Submit(clients[c].sid, clients[c].entry, args);
      if (!req.ok()) {
        ++failures;
        reqs[c] = 0;
        continue;
      }
      reqs[c] = *req;
      ++submitted;
    }
    for (size_t c = 0; c < clients.size(); ++c) {
      if (reqs[c] != 0 && !fleet.WaitCompletion(reqs[c]).ok()) {
        ++failures;
      }
      reqs[c] = 0;
    }
  }
  fleet.Stop();

  FleetStats st = fleet.stats();
  std::printf("\n%d invokes, %d failures\n", submitted, failures);
  std::printf("shard  executed  stolen  busy-rejects  sessions\n");
  for (size_t i = 0; i < st.shards.size(); ++i) {
    const ShardStats& ss = st.shards[i];
    std::printf("%5zu  %8llu  %6llu  %12llu  %8zu\n", i,
                static_cast<unsigned long long>(ss.executed),
                static_cast<unsigned long long>(ss.stolen),
                static_cast<unsigned long long>(ss.busy_rejects), ss.open_sessions);
  }
  const Histogram& qw = fleet.queue_wait_us();
  std::printf("queue wait (wall-clock us): p50 %llu, p99 %llu, max %llu\n",
              static_cast<unsigned long long>(qw.Percentile(50)),
              static_cast<unsigned long long>(qw.Percentile(99)),
              static_cast<unsigned long long>(qw.max()));
  return failures == 0 ? 0 : 1;
}

// Drives one driverlet through the per-session invocation ring at several
// commands-per-doorbell sizes and prints the switch-amortization table
// (docs/replay_service.md). Each batch size runs on a fresh testbed so the
// virtual-clock and world-switch deltas are directly comparable.
int CmdRing(int argc, char** argv) {
  const char* path = nullptr;
  size_t count = 64;
  std::vector<size_t> batches = {1, 8, 64};
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--count") == 0 && i + 1 < argc) {
      count = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batches.clear();
      for (char* tok = std::strtok(argv[++i], ","); tok != nullptr;
           tok = std::strtok(nullptr, ",")) {
        size_t b = static_cast<size_t>(std::atoi(tok));
        if (b == 0) {
          return Usage();
        }
        batches.push_back(b);
      }
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      return Usage();
    }
  }
  if (path == nullptr || count == 0 || batches.empty()) {
    return Usage();
  }
  Result<std::vector<uint8_t>> data = ReadFile(path);
  if (!data.ok()) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  Telemetry::Get().Enable();  // ring.* gauges + queue-wait histogram

  int failures = 0;
  bool header = false;
  for (size_t batch : batches) {
    TestbedOptions opts;
    opts.secure_io = true;
    opts.probe_drivers = false;
    Rpi3Testbed tb{opts};
    ReplayServiceConfig cfg;
    cfg.ring_depth = batch;  // exactly one doorbell's worth of slots
    ReplayService svc(&tb.tee(), kDeveloperKey, cfg);
    Result<std::string> name = svc.RegisterDriverlet(data->data(), data->size());
    if (!name.ok()) {
      std::fprintf(stderr, "%s rejected: %s\n", path, StatusName(name.status()));
      return 1;
    }
    std::string entry = svc.store().templates(*name).front()->entry;
    Result<SessionId> sid = svc.OpenSession(*name);
    if (!sid.ok()) {
      return 1;
    }
    if (!header) {
      std::printf("ring amortization: %s/%s, %zu commands per configuration\n\n",
                  name->c_str(), entry.c_str(), count);
      std::printf("batch  doorbells  switches/cmd   us/cmd      wait p50/p99 us\n");
      header = true;
    }
    Histogram& wait = Telemetry::Get().metrics().histogram("ring.queue_wait_us");
    wait.Reset();
    std::vector<std::vector<uint8_t>> bufs(batch), auxs(batch);
    uint64_t sw0 = tb.tee().world_switches();
    uint64_t t0 = tb.clock().now_us();
    uint64_t doorbells = 0;
    size_t done = 0;
    while (done < count) {
      size_t n = batch < count - done ? batch : count - done;
      for (size_t j = 0; j < n; ++j) {
        ReplayArgs args;
        if (!FleetArgsFor(entry, static_cast<int>(done + j), &bufs[j], &auxs[j], &args)) {
          std::fprintf(stderr, "no synthetic load for entry %s\n", entry.c_str());
          return 1;
        }
        if (!svc.RingPush(*sid, entry, std::move(args)).ok()) {
          ++failures;
        }
      }
      Result<size_t> ran = svc.RingDoorbell(*sid);
      if (!ran.ok() || *ran != n) {
        ++failures;
      }
      ++doorbells;
      for (size_t j = 0; j < n; ++j) {
        Result<RingCompletion> c = svc.RingPop(*sid);
        if (!c.ok() || !c->result.ok()) {
          ++failures;
        }
      }
      done += n;
    }
    uint64_t switches = tb.tee().world_switches() - sw0;
    double us_per_cmd = static_cast<double>(tb.clock().now_us() - t0) / count;
    std::printf("%5zu  %9llu  %12.4f   %-9.1f   %llu/%llu\n", batch,
                static_cast<unsigned long long>(doorbells),
                static_cast<double>(switches) / count, us_per_cmd,
                static_cast<unsigned long long>(wait.Percentile(50)),
                static_cast<unsigned long long>(wait.Percentile(99)));
  }
  if (failures != 0) {
    std::fprintf(stderr, "%d command failures\n", failures);
  }
  return failures == 0 ? 0 : 1;
}

// Re-executes a shrunk boundary repro file (exit 0 = the bug is fixed).
int CmdFuzzRepro(const char* path) {
  Result<BoundaryRepro> repro = ReadBoundaryRepro(path);
  if (!repro.ok()) {
    std::fprintf(stderr, "cannot parse %s: %s\n", path, StatusName(repro.status()));
    return 2;
  }
  std::printf("repro %s: %zu actions, recorded invariant '%s'\n", path,
              repro->program.actions.size(), repro->invariant.c_str());
  BoundaryRunResult r = RunBoundaryProgram(repro->program);
  if (r.ok()) {
    std::printf("PASS: every boundary invariant holds (the underlying bug is fixed)\n");
    return 0;
  }
  std::printf("FAIL %-18s %s\n", r.invariant.c_str(), r.detail.c_str());
  return 1;
}

void PrintFuzzStats(const BoundaryFuzzStats& st) {
  std::printf("%d mutants run, corpus %zu programs, %zu coverage features\n", st.runs,
              st.corpus_size, st.features);
  std::printf("coverage curve:");
  for (size_t v : st.coverage_curve) {
    std::printf(" %zu", v);
  }
  std::printf("\n");
  for (const BoundaryFinding& f : st.findings) {
    std::printf("FAIL %-18s %s\n", f.invariant.c_str(), f.detail.c_str());
    std::printf("  shrunk %zu -> %zu actions in %d steps\n", f.program.actions.size(),
                f.shrunk.actions.size(), f.shrink_steps);
    if (!f.repro_path.empty()) {
      std::printf("  wrote %s\n", f.repro_path.c_str());
    }
  }
}

// Coverage-guided boundary fuzz: a clean campaign over the real service, then
// (unless --no-plant) a short campaign with the planted ring wrap bug armed —
// the regression guard that the fuzzer can still find and shrink a violation.
int CmdFuzz(int argc, char** argv) {
  BoundaryFuzzConfig cfg;
  cfg.repro_dir = ".";
  bool plant = true;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repro") == 0 && i + 1 < argc) {
      return CmdFuzzRepro(argv[++i]);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      cfg.seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      cfg.iterations = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      cfg.repro_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--no-plant") == 0) {
      plant = false;
    } else {
      return Usage();
    }
  }
  if (cfg.seconds <= 0 && cfg.iterations <= 0) {
    return Usage();
  }

  if (cfg.iterations > 0) {
    std::printf("boundary fuzz: %d mutants, seed %llu\n", cfg.iterations,
                static_cast<unsigned long long>(cfg.seed));
  } else {
    std::printf("boundary fuzz: %.1f s budget, seed %llu\n", cfg.seconds,
                static_cast<unsigned long long>(cfg.seed));
  }
  BoundaryFuzzStats clean = RunBoundaryFuzz(cfg);
  PrintFuzzStats(clean);
  int rc = clean.findings.empty() ? 0 : 1;
  if (rc == 0) {
    std::printf("no boundary violations\n");
  }

  if (plant) {
    std::printf("\nregression guard: planted ring wrap-around reap bug\n");
    BoundaryFuzzConfig pcfg;
    pcfg.seed = cfg.seed;
    pcfg.iterations = 8;
    pcfg.max_findings = 1;
    pcfg.plant_ring_quirk = true;
    pcfg.repro_dir = cfg.repro_dir;
    BoundaryFuzzStats planted = RunBoundaryFuzz(pcfg);
    bool found = false;
    for (const BoundaryFinding& f : planted.findings) {
      if (f.invariant != "ring-order") {
        continue;
      }
      found = true;
      std::printf("found: %s\n  shrunk %zu -> %zu actions in %d steps\n", f.detail.c_str(),
                  f.program.actions.size(), f.shrunk.actions.size(), f.shrink_steps);
      if (!f.repro_path.empty()) {
        std::printf("  wrote %s\n", f.repro_path.c_str());
      }
    }
    if (found) {
      std::printf("planted bug found and shrunk -- the fuzzer still has teeth\n");
    } else {
      std::fprintf(stderr, "planted bug NOT found -- the fuzzer lost its teeth\n");
      rc = 1;
    }
  }
  return rc;
}

// Loads a package into a deployment TEE, drives a few invokes, and prints +
// re-verifies the session's signed attestation quote.
int CmdAttest(int argc, char** argv) {
  const char* path = nullptr;
  const char* nonce = "driverletc-nonce";
  int invokes = 3;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nonce") == 0 && i + 1 < argc) {
      nonce = argv[++i];
    } else if (std::strcmp(argv[i], "--invokes") == 0 && i + 1 < argc) {
      invokes = std::atoi(argv[++i]);
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      return Usage();
    }
  }
  if (path == nullptr || invokes < 0) {
    return Usage();
  }
  Result<std::vector<uint8_t>> data = ReadFile(path);
  if (!data.ok()) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  Deployment d = MakeDeployment(*data);
  if (d.session == 0) {
    return 1;
  }
  const std::string entry = d.service->store().templates(d.driverlet).front()->entry;
  int failures = 0;
  std::vector<uint8_t> buf, aux;
  for (int i = 0; i < invokes; ++i) {
    ReplayArgs args;
    if (!FleetArgsFor(entry, i, &buf, &aux, &args)) {
      std::fprintf(stderr, "no synthetic load for entry %s\n", entry.c_str());
      return 1;
    }
    if (!d.service->Invoke(d.session, entry, args).ok()) {
      ++failures;
    }
  }
  Result<AttestationQuote> q = d.service->Attest(d.session, nonce);
  if (!q.ok()) {
    std::fprintf(stderr, "attest failed: %s\n", StatusName(q.status()));
    return 1;
  }
  std::printf("%s", SerializeQuote(*q).c_str());
  bool sig_ok = VerifyQuote(*q, kDeveloperKey);
  std::printf("signature %s under the developer key\n", sig_ok ? "VERIFIED" : "INVALID");
  return sig_ok && failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "faultsweep") == 0) {
    return CmdFaultSweep(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "check") == 0) {
    return CmdCheck(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "fuzz") == 0) {
    return CmdFuzz(argc, argv);
  }
  if (argc < 3) {
    return Usage();
  }
  if (std::strcmp(argv[1], "record") == 0) {
    return CmdRecord(argc, argv);
  }
  if (std::strcmp(argv[1], "inspect") == 0) {
    return CmdInspect(argv[2]);
  }
  if (std::strcmp(argv[1], "verify") == 0) {
    return CmdVerify(argv[2]);
  }
  if (std::strcmp(argv[1], "smoke") == 0) {
    return ReplayOnce(argv[2]);
  }
  if (std::strcmp(argv[1], "trace") == 0) {
    return CmdTrace(argc, argv);
  }
  if (std::strcmp(argv[1], "fleet") == 0) {
    return CmdFleet(argc, argv);
  }
  if (std::strcmp(argv[1], "ring") == 0) {
    return CmdRing(argc, argv);
  }
  if (std::strcmp(argv[1], "attest") == 0) {
    return CmdAttest(argc, argv);
  }
  return Usage();
}
