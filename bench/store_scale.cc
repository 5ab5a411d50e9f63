// Template-store scale benchmark: does selection stay flat as the population
// grows from 1k to 100k templates?
//
// Method (docs/template_store.md, docs/benchmarks.md):
//  - per size: build the deterministic scale corpus (src/check/scale_corpus.h),
//    seal it as a binary package and register it with AddPackage from the
//    sealed bytes (verify + decompress + parse + index, the path every
//    deployment takes);
//  - sample up to 1500 targets and drive two selection paths per target:
//    indexed Select and SelectLinear (the differential oracle) on the same
//    store. Both must select each target's template — FNV digest parity,
//    nonzero exit on mismatch;
//  - candidates-scanned deltas around each loop give scans/invoke for the
//    indexed vs linear path;
//  - self-guards: indexed scans/invoke <= 8 whenever every slot indexed,
//    linear scans grow with the corpus while indexed scans do not, and the
//    indexed path scans at least 10x fewer candidates at the largest size.
//
// Emits BENCH_store_scale.json (byte-stable by default; --timing adds a
// wall-clock section for human runs, p50/p99 prints to stdout regardless).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/check/scale_corpus.h"
#include "src/core/template_store.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

uint64_t Fnv1a(uint64_t h, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

uint64_t FoldSelection(uint64_t h, size_t target, Status st, const InteractionTemplate* tpl) {
  uint64_t t = target;
  h = Fnv1a(h, reinterpret_cast<const uint8_t*>(&t), sizeof(t));
  uint8_t s = static_cast<uint8_t>(st);
  h = Fnv1a(h, &s, 1);
  if (tpl != nullptr) {
    h = Fnv1a(h, reinterpret_cast<const uint8_t*>(tpl->name.data()), tpl->name.size());
  }
  return h;
}

struct SizeResult {
  size_t templates = 0;
  size_t entries = 0;
  size_t indexed_slots = 0;
  size_t sampled = 0;
  size_t package_bytes = 0;  // sealed binary package
  double scans_indexed = 0;  // per invoke
  double scans_linear = 0;
  uint64_t index_probes = 0;
  bool parity = false;
  double eager_register_ms = 0;
  uint64_t select_p50_ns = 0;
  uint64_t select_p99_ns = 0;
};

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Nearest-rank percentile of an ascending sample: rank ceil(p*n/100), the rule
// Histogram::Percentile uses.
uint64_t Percentile(const std::vector<uint64_t>& sorted, size_t p) {
  size_t rank = std::max<size_t>((p * sorted.size() + 99) / 100, 1);
  return sorted[rank - 1];
}

constexpr size_t kMaxSamples = 1500;

bool RunSize(size_t n, SizeResult* out) {
  ScaleCorpusConfig cfg;
  cfg.templates = n;
  ScaleCorpus corpus = BuildScaleCorpus(cfg);
  out->templates = n;
  out->entries = cfg.entries;

  std::vector<uint8_t> sealed = SealPackage(corpus.pkg, PackageFormat::kBinary, kDeveloperKey);
  out->package_bytes = sealed.size();
  TemplateStore store;
  auto t0 = std::chrono::steady_clock::now();
  if (!Ok(store.AddPackage(sealed.data(), sealed.size(), kDeveloperKey))) {
    std::fprintf(stderr, "registration failed at %zu\n", n);
    return false;
  }
  out->eager_register_ms = MsSince(t0);
  out->indexed_slots = store.indexed_slot_count();

  out->sampled = std::min(n, kMaxSamples);
  size_t stride = n / out->sampled;
  std::vector<size_t> targets;
  targets.reserve(out->sampled);
  for (size_t i = 0; i < out->sampled; ++i) {
    targets.push_back(i * stride);
  }

  // Indexed path, with per-invoke latency.
  uint64_t digest_indexed = 0xcbf29ce484222325ull;
  std::vector<uint64_t> lat_ns;
  lat_ns.reserve(targets.size());
  uint64_t scanned0 = store.candidates_scanned();
  uint64_t probes0 = store.index_probes();
  for (size_t k : targets) {
    Bindings scalars = ScaleInvokeScalars(corpus, k);
    std::string entry = ScaleEntry(cfg, k);
    auto s0 = std::chrono::steady_clock::now();
    Result<const InteractionTemplate*> r = store.Select(kScaleDriverlet, entry, scalars);
    lat_ns.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             s0)
            .count()));
    digest_indexed = FoldSelection(digest_indexed, k, r.status(), r.ok() ? *r : nullptr);
    if (!r.ok() || (*r)->name != "scale_" + std::to_string(k)) {
      std::fprintf(stderr, "indexed select missed target %zu at size %zu\n", k, n);
      return false;
    }
  }
  out->scans_indexed =
      static_cast<double>(store.candidates_scanned() - scanned0) / targets.size();
  out->index_probes = store.index_probes() - probes0;
  std::sort(lat_ns.begin(), lat_ns.end());
  out->select_p50_ns = Percentile(lat_ns, 50);
  out->select_p99_ns = Percentile(lat_ns, 99);

  // Linear oracle on the same store: both digests must agree.
  uint64_t digest_linear = 0xcbf29ce484222325ull;
  scanned0 = store.candidates_scanned();
  for (size_t k : targets) {
    Bindings scalars = ScaleInvokeScalars(corpus, k);
    Result<const InteractionTemplate*> r =
        store.SelectLinear(kScaleDriverlet, ScaleEntry(cfg, k), scalars);
    digest_linear = FoldSelection(digest_linear, k, r.status(), r.ok() ? *r : nullptr);
  }
  out->scans_linear =
      static_cast<double>(store.candidates_scanned() - scanned0) / targets.size();
  out->parity = digest_indexed == digest_linear;
  return true;
}

}  // namespace
}  // namespace dlt

int main(int argc, char** argv) {
  using namespace dlt;
  std::vector<size_t> sizes = {1000, 10000, 100000};
  const char* out_path = "BENCH_store_scale.json";
  bool timing = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sizes=", 8) == 0) {
      sizes.clear();
      for (const char* p = argv[i] + 8; *p != '\0';) {
        sizes.push_back(static_cast<size_t>(std::strtoull(p, nullptr, 10)));
        p = std::strchr(p, ',');
        if (p == nullptr) {
          break;
        }
        ++p;
      }
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--timing") == 0) {
      timing = true;
    } else {
      std::fprintf(stderr, "usage: %s [--sizes=1000,10000,100000] [--out=FILE] [--timing]\n",
                   argv[0]);
      return 2;
    }
  }
  if (sizes.empty()) {
    std::fprintf(stderr, "bad arguments\n");
    return 2;
  }

  std::printf("Template store at scale: constraint-indexed selection\n\n");
  std::vector<SizeResult> results;
  for (size_t n : sizes) {
    SizeResult r;
    if (!RunSize(n, &r)) {
      return 1;
    }
    std::printf(
        "  %7zu templates: scans/invoke indexed %6.2f vs linear %8.2f, "
        "select p50/p99 %llu/%llu ns\n"
        "           register %8.2f ms from %zu sealed bytes, parity %s\n",
        r.templates, r.scans_indexed, r.scans_linear,
        static_cast<unsigned long long>(r.select_p50_ns),
        static_cast<unsigned long long>(r.select_p99_ns), r.eager_register_ms, r.package_bytes,
        r.parity ? "ok" : "MISMATCH");
    results.push_back(r);
  }

  // Self-guards.
  bool ok = true;
  const SizeResult& largest = results.back();
  for (const SizeResult& r : results) {
    if (!r.parity) {
      std::fprintf(stderr, "FAIL: selection digest mismatch (indexed vs linear) at %zu\n",
                   r.templates);
      ok = false;
    }
    if (r.indexed_slots == r.entries && r.scans_indexed > 8.0) {
      std::fprintf(stderr, "FAIL: indexed scans/invoke %.2f > 8 at %zu templates\n",
                   r.scans_indexed, r.templates);
      ok = false;
    }
  }
  if (results.size() > 1) {
    const SizeResult& smallest = results.front();
    if (largest.scans_linear <= smallest.scans_linear) {
      std::fprintf(stderr, "FAIL: linear scans/invoke did not grow with the corpus "
                   "(%.2f at %zu vs %.2f at %zu)\n",
                   smallest.scans_linear, smallest.templates, largest.scans_linear,
                   largest.templates);
      ok = false;
    }
    if (largest.templates >= 1000 && largest.scans_linear < 10.0 * largest.scans_indexed) {
      std::fprintf(stderr, "FAIL: indexed path only %.1fx better than linear at %zu\n",
                   largest.scans_linear / largest.scans_indexed, largest.templates);
      ok = false;
    }
  }

  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"sizes\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    std::fprintf(f,
                 "    {\"templates\": %zu, \"entries\": %zu, \"indexed_slots\": %zu, "
                 "\"sampled_invokes\": %zu,\n"
                 "     \"package_bytes\": %zu,\n"
                 "     \"scans_per_invoke\": {\"indexed\": %.3f, \"linear\": %.3f}, "
                 "\"index_probes\": %llu,\n"
                 "     \"selection_parity\": %s}%s\n",
                 r.templates, r.entries, r.indexed_slots, r.sampled, r.package_bytes,
                 r.scans_indexed, r.scans_linear,
                 static_cast<unsigned long long>(r.index_probes), r.parity ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  if (timing) {
    // Wall-clock section is opt-in so the default artifact stays byte-stable
    // for the CI determinism check (run twice, cmp).
    std::fprintf(f, "  \"timing\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const SizeResult& r = results[i];
      std::fprintf(f,
                   "    {\"templates\": %zu, \"eager_register_ms\": %.2f, "
                   "\"select_p50_ns\": %llu, \"select_p99_ns\": %llu}%s\n",
                   r.templates, r.eager_register_ms,
                   static_cast<unsigned long long>(r.select_p50_ns),
                   static_cast<unsigned long long>(r.select_p99_ns),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
  }
  std::fprintf(f, "  \"guards_passed\": %s\n}\n", ok ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);
  return ok ? 0 : 1;
}
