// Boundary-fuzzer benchmark: a fixed-iteration coverage-guided campaign over
// the replay-service boundary (src/check/fuzz.h) plus the planted-bug
// regression demo, with the coverage curve and shrink accounting emitted as
// BENCH_fuzz.json. Deterministic: the budget is an iteration count, never wall
// clock, so two runs with the same flags produce byte-identical JSON. The clean
// campaign's throughput is printed on stdout only: it is host-clock time and
// would make the JSON differ run to run.
//
//   boundary_fuzz [--iters N] [--seed K] [--out PATH]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "src/check/fuzz.h"
#include "src/workload/deploy_util.h"

int main(int argc, char** argv) {
  using namespace dlt;

  int iters = 120;
  uint64_t seed = 1;
  std::string out_path = "BENCH_fuzz.json";
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--iters") == 0) {
      iters = std::atoi(next("--iters"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(next("--seed"), nullptr, 0);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = next("--out");
    } else {
      std::fprintf(stderr, "usage: boundary_fuzz [--iters N] [--seed K] [--out PATH]\n");
      return 2;
    }
  }
  if (iters < 1) {
    std::fprintf(stderr, "--iters must be >= 1\n");
    return 2;
  }

  // Clean campaign: the real service, no planted bugs, fixed mutant budget.
  BoundaryFuzzConfig cfg;
  cfg.seed = seed;
  cfg.iterations = iters;
  std::printf("boundary fuzz: %d mutants, seed %llu\n", iters,
              static_cast<unsigned long long>(seed));
  PrintRule();
  auto t0 = std::chrono::steady_clock::now();
  BoundaryFuzzStats clean = RunBoundaryFuzz(cfg);
  std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  std::printf("%d mutants run, corpus %zu programs, %zu coverage features\n", clean.runs,
              clean.corpus_size, clean.features);
  // Wall time covers the whole campaign: corpus seeding and re-runs included.
  std::printf("throughput (host clock): %.1f execs/s (%d mutants in %.2f s)\n",
              clean.runs / wall.count(), clean.runs, wall.count());
  std::printf("coverage curve:");
  for (size_t v : clean.coverage_curve) {
    std::printf(" %zu", v);
  }
  std::printf("\n");
  for (const BoundaryFinding& f : clean.findings) {
    std::printf("FAIL %-18s %s\n", f.invariant.c_str(), f.detail.c_str());
  }

  // Shrink demonstration: arm the planted ring wrap-around reap bug and let
  // the fuzzer catch + ddmin it — the measured failure path, mirroring the
  // conformance sweep's planted-decoder-bug demo.
  BoundaryFuzzConfig pcfg;
  pcfg.seed = seed;
  pcfg.iterations = 8;
  pcfg.max_findings = 1;
  pcfg.plant_ring_quirk = true;
  BoundaryFuzzStats planted = RunBoundaryFuzz(pcfg);
  size_t planted_original = 0, planted_shrunk = 0;
  int planted_steps = 0;
  bool planted_found = false;
  for (const BoundaryFinding& f : planted.findings) {
    if (f.invariant == "ring-order") {
      planted_found = true;
      planted_original = f.program.actions.size();
      planted_shrunk = f.shrunk.actions.size();
      planted_steps = f.shrink_steps;
    }
  }
  std::printf("planted ring bug: %s, shrunk %zu -> %zu actions (%d steps)\n",
              planted_found ? "found" : "NOT FOUND", planted_original, planted_shrunk,
              planted_steps);
  PrintRule();

  std::ostringstream json;
  json << "{\n  \"runs\": " << clean.runs << ",\n  \"corpus\": " << clean.corpus_size
       << ",\n  \"features\": " << clean.features << ",\n  \"violations\": "
       << clean.findings.size() << ",\n  \"coverage_curve\": [";
  for (size_t i = 0; i < clean.coverage_curve.size(); ++i) {
    if (i > 0) {
      json << ", ";
    }
    json << clean.coverage_curve[i];
  }
  json << "],\n  \"planted\": {\"found\": " << (planted_found ? "true" : "false")
       << ", \"invariant\": \"ring-order\", \"original_actions\": " << planted_original
       << ", \"shrunk_actions\": " << planted_shrunk << ", \"steps\": " << planted_steps
       << "}\n}\n";
  std::string out_json = json.str();
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(out_json.data(), 1, out_json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // Regression guards: no violations on the clean service, a monotone
  // coverage curve that actually grew past the seed corpus, and the planted
  // bug caught and shrunk to a genuinely small program.
  if (!clean.findings.empty()) {
    std::fprintf(stderr, "FAIL: %zu boundary violations on the clean service\n",
                 clean.findings.size());
    return 1;
  }
  for (size_t i = 1; i < clean.coverage_curve.size(); ++i) {
    if (clean.coverage_curve[i] < clean.coverage_curve[i - 1]) {
      std::fprintf(stderr, "FAIL: coverage curve regressed at sample %zu\n", i);
      return 1;
    }
  }
  if (clean.coverage_curve.empty() ||
      clean.coverage_curve.back() <= clean.coverage_curve.front()) {
    std::fprintf(stderr, "FAIL: mutation found no coverage beyond the seed corpus\n");
    return 1;
  }
  if (!planted_found || planted_shrunk == 0) {
    std::fprintf(stderr, "FAIL: planted ring bug not caught\n");
    return 1;
  }
  if (planted_shrunk > 16) {
    std::fprintf(stderr, "FAIL: shrunk repro too large (%zu actions)\n", planted_shrunk);
    return 1;
  }
  return 0;
}
