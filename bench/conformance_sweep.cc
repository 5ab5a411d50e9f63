// Conformance sweep: runs N generated seeds through every conformance
// invariant (determinism, serializer round-trip, store coherence, baseline,
// the three fault planes, measurement) and emits per-seed accounting plus a
// shrink demonstration against the planted binary decoder bug.
// Emits BENCH_conformance.json. Deterministic: two runs with the same flags
// produce byte-identical output (wall-clock goes to stdout only).
//
//   conformance_sweep [--seeds N] [--base-seed S] [--out PATH]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "src/workload/deploy_util.h"
#include "src/check/conformance.h"
#include "src/core/serialize_binary.h"

int main(int argc, char** argv) {
  using namespace dlt;

  SeedRange seed_range;
  seed_range.count = 30;
  std::string out_path = "BENCH_conformance.json";
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (IsSeedRangeFlag(argv[i])) {
      const char* flag = argv[i];
      ApplySeedRangeFlag(&seed_range, flag, next(flag));
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = next("--out");
    } else {
      std::fprintf(stderr, "usage: conformance_sweep [--seeds N] [--base-seed S] [--out PATH]\n");
      return 2;
    }
  }
  if (!seed_range.valid()) {
    std::fprintf(stderr, "--seeds must be >= 1\n");
    return 2;
  }
  const int num_seeds = seed_range.count;
  const uint64_t base_seed = seed_range.base;

  const size_t invariants = AllInvariants().size();
  std::printf("conformance sweep: %d seeds x %zu invariants\n", num_seeds, invariants);
  PrintRule();

  int failures = 0;
  uint64_t events_total = 0;
  uint64_t sim_us_total = 0;
  std::ostringstream cases;
  for (int i = 0; i < num_seeds; ++i) {
    uint64_t seed = base_seed + static_cast<uint64_t>(i);
    GeneratedCase g = GenerateCase(seed);
    ConformanceOutcome out = RunConformance(g);
    events_total += out.events_executed;
    sim_us_total += out.end_us;
    if (!out.ok()) {
      ++failures;
      for (const ConformanceFailure& f : out.failures) {
        std::printf("seed %llu FAIL %s: %s\n", static_cast<unsigned long long>(seed),
                    f.invariant.c_str(), f.detail.c_str());
      }
    }
    if (i > 0) cases << ",";
    cases << "\n    {\"seed\": " << seed << ", \"events\": " << g.tpl.events.size()
          << ", \"executed\": " << out.events_executed << ", \"sim_us\": " << out.end_us
          << ", \"failures\": " << out.failures.size() << "}";
  }
  std::printf("%d/%d seeds conform, %llu events executed\n", num_seeds - failures, num_seeds,
              static_cast<unsigned long long>(events_total));

  // Shrink demonstration: arm the planted decoder bug, catch it with the
  // serialize-roundtrip invariant, and report how small the shrinker gets.
  // This keeps the harness's failure path measured, not just its happy path.
  SetBinaryValueQuirkForTest(true);
  size_t shrunk_events = 0, original_events = 0;
  int shrink_steps = 0;
  uint64_t caught_seed = 0;
  for (uint64_t seed = base_seed; seed < base_seed + 30; ++seed) {
    GeneratedCase g = GenerateCase(seed);
    if (RunConformance(g, {"serialize-roundtrip"}).ok()) continue;
    auto s = Shrink(g, {"serialize-roundtrip"});
    if (s.ok()) {
      caught_seed = seed;
      original_events = s->original_events;
      shrunk_events = s->reduced.tpl.events.size();
      shrink_steps = s->steps;
    }
    break;
  }
  SetBinaryValueQuirkForTest(false);
  std::printf("planted decoder bug: seed %llu shrunk %zu -> %zu events (%d steps)\n",
              static_cast<unsigned long long>(caught_seed), original_events, shrunk_events,
              shrink_steps);
  PrintRule();

  std::ostringstream json;
  json << "{\n  \"cases\": " << num_seeds << ",\n  \"failures\": " << failures
       << ",\n  \"invariants_checked\": " << invariants
       << ",\n  \"events_total\": " << events_total << ",\n  \"sim_us_total\": " << sim_us_total
       << ",\n  \"shrink_demo\": {\"seed\": " << caught_seed
       << ", \"original_events\": " << original_events << ", \"shrunk_events\": " << shrunk_events
       << ", \"steps\": " << shrink_steps << "},\n  \"per_seed\": [" << cases.str()
       << "\n  ]\n}\n";
  std::string out_json = json.str();
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(out_json.data(), 1, out_json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // Regression guards: the sweep must conform, the shrinker must have caught
  // the planted decoder bug, and the shrunk repro must be genuinely small.
  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d seeds did not conform\n", failures);
    return 1;
  }
  if (caught_seed == 0 || shrunk_events == 0) {
    std::fprintf(stderr, "FAIL: planted decoder bug not caught\n");
    return 1;
  }
  if (shrunk_events > 5) {
    std::fprintf(stderr, "FAIL: shrunk repro too large (%zu events)\n", shrunk_events);
    return 1;
  }
  return 0;
}
