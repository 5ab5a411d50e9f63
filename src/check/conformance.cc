#include "src/check/conformance.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <set>

#include "src/core/integrity.h"
#include "src/core/package.h"
#include "src/core/replayer.h"
#include "src/core/serialize_binary.h"
#include "src/core/template_store.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/obs/telemetry.h"
#include "src/record/package_writer.h"
#include "src/record/serialize_text.h"

namespace dlt {

GenHarness::GenHarness()
    : dev(&machine.clock(), &machine.irq()), tee(&machine) {
  auto id = machine.AttachDevice(kGenDeviceBase, kGenDeviceSize, &dev);
  gen_id = id.ok() ? *id : 0;
  machine.AssignToSecureWorld(gen_id);
  machine.AssignToSecureWorld(kGenDmaDeviceId);
  tee.MapDevice(gen_id);
  tee.MapDevice(kGenDmaDeviceId);
}

namespace {

bool g_planted_decoder_bug = false;

// The planted decoder bug (PlantDecoderBug): every constant event value reads
// one larger than it was written, poll bodies included.
void AddOneToConstantValues(std::vector<TemplateEvent>* events) {
  for (TemplateEvent& e : *events) {
    if (e.value != nullptr && e.value->is_const()) {
      e.value = Expr::Const(e.value->constant() + 1);
    }
    AddOneToConstantValues(&e.body);
  }
}

// Everything about one replay run the normal world can observe — the oracle
// surface every cross-run invariant compares.
struct Obs {
  Status load = Status::kOk;      // package load outcome (setup, not replay)
  Status status = Status::kOk;    // Invoke outcome
  std::vector<uint8_t> out;       // "out" buffer bytes after the run
  ReplayStats stats;              // zeroed when Invoke failed
  uint64_t total_events = 0;      // replayer cumulative (counts failed attempts)
  uint64_t total_resets = 0;
  uint64_t end_us = 0;            // virtual clock at return
  uint64_t trace_pushed = 0;      // telemetry ring events emitted
  uint64_t replay_events = 0;     // "replay.events" counter
  uint64_t injected = 0;          // faults the injector fired
  DivergenceReport report;
  MeasurementRecord meas;         // runtime integrity record of the last attempt
};

DriverletPackage PackageOf(const InteractionTemplate& tpl) {
  DriverletPackage pkg;
  pkg.driverlet = kGenDriverlet;
  pkg.templates.push_back(tpl);
  return pkg;
}

// One replay on a fresh harness. |tpl_override| substitutes the loaded
// template (round-trip re-replay) while the invoke inputs stay |g|'s.
Obs RunOnce(const GeneratedCase& g, const FaultPlan* plan,
            const InteractionTemplate* tpl_override = nullptr) {
  Obs o;
  GenHarness h;
  h.dev.Configure(g.script);
  Replayer rep(&h.tee, kGenSigningKey);
  o.load = rep.LoadPackage(PackageOf(tpl_override ? *tpl_override : g.tpl));
  FaultInjector inj(&h.machine);
  if (plan != nullptr) {
    inj.Arm(*plan);
  }

  std::vector<uint8_t> out(g.out_len, 0);
  ReplayArgs args;
  args.scalars = g.scalars;
  args.buffers["out"] = BufferView{out.data(), out.size()};
  args.ro_buffers["payload"] = ConstBufferView(g.payload.data(), g.payload.size());

  Telemetry::Get().Enable();
  Telemetry::Get().Reset();
  auto r = rep.Invoke(g.tpl.entry, args);
  o.status = r.ok() ? Status::kOk : r.status();
  if (r.ok()) {
    o.stats = *r;
  }
  o.trace_pushed = Telemetry::Get().ring().pushed();
  o.replay_events = Telemetry::Get().metrics().counter("replay.events").value();
  Telemetry::Get().Disable();

  o.out = std::move(out);
  o.total_events = rep.total_events_executed();
  o.total_resets = rep.total_resets();
  o.end_us = h.machine.clock().now_us();
  o.injected = inj.injected_total();
  o.report = rep.last_report();
  o.meas = rep.last_measurement();
  return o;
}

std::string Num(uint64_t v) { return std::to_string(v); }

// First observable difference between two runs, or nullopt when none.
std::optional<std::string> DiffObs(const Obs& a, const Obs& b) {
  if (a.load != b.load) {
    return std::string("load: ") + StatusName(a.load) + " vs " + StatusName(b.load);
  }
  if (a.status != b.status) {
    return std::string("status: ") + StatusName(a.status) + " vs " + StatusName(b.status);
  }
  if (a.out != b.out) {
    size_t i = 0;
    size_t n = std::min(a.out.size(), b.out.size());
    while (i < n && a.out[i] == b.out[i]) ++i;
    return "out bytes differ at offset " + Num(i) + " (0x" +
           (i < n ? Num(a.out[i]) + " vs 0x" + Num(b.out[i]) : "len mismatch") + ")";
  }
  if (a.stats.template_name != b.stats.template_name) {
    return "template: '" + a.stats.template_name + "' vs '" + b.stats.template_name + "'";
  }
  if (a.stats.attempts != b.stats.attempts) {
    return "attempts: " + Num(a.stats.attempts) + " vs " + Num(b.stats.attempts);
  }
  if (a.stats.events_executed != b.stats.events_executed) {
    return "events_executed: " + Num(a.stats.events_executed) + " vs " +
           Num(b.stats.events_executed);
  }
  if (a.stats.resets != b.stats.resets) {
    return "resets: " + Num(a.stats.resets) + " vs " + Num(b.stats.resets);
  }
  // The integrity chain is part of the oracle surface: runs must fold the
  // same structural descriptors in the same order (docs/architecture.md).
  if (a.stats.measurement != b.stats.measurement) {
    return "stats.measurement: " + a.stats.measurement + " vs " + b.stats.measurement;
  }
  if (a.stats.events_measured != b.stats.events_measured) {
    return "events_measured: " + Num(a.stats.events_measured) + " vs " +
           Num(b.stats.events_measured);
  }
  if (a.meas.valid != b.meas.valid) {
    return std::string("measurement.valid: ") + (a.meas.valid ? "true" : "false") + " vs " +
           (b.meas.valid ? "true" : "false");
  }
  if (a.meas.valid) {
    if (a.meas.Hex() != b.meas.Hex()) {
      return "measurement: " + a.meas.Hex() + " vs " + b.meas.Hex();
    }
    if (a.meas.events_measured != b.meas.events_measured) {
      return "measurement.events: " + Num(a.meas.events_measured) + " vs " +
             Num(b.meas.events_measured);
    }
  }
  if (a.total_events != b.total_events) {
    return "total_events: " + Num(a.total_events) + " vs " + Num(b.total_events);
  }
  if (a.total_resets != b.total_resets) {
    return "total_resets: " + Num(a.total_resets) + " vs " + Num(b.total_resets);
  }
  if (a.end_us != b.end_us) {
    return "end_us: " + Num(a.end_us) + " vs " + Num(b.end_us);
  }
  if (a.trace_pushed != b.trace_pushed) {
    return "trace events: " + Num(a.trace_pushed) + " vs " + Num(b.trace_pushed);
  }
  if (a.replay_events != b.replay_events) {
    return "replay.events: " + Num(a.replay_events) + " vs " + Num(b.replay_events);
  }
  if (a.injected != b.injected) {
    return "faults injected: " + Num(a.injected) + " vs " + Num(b.injected);
  }
  const DivergenceReport& ra = a.report;
  const DivergenceReport& rb = b.report;
  if (ra.valid != rb.valid) {
    return std::string("report.valid: ") + (ra.valid ? "true" : "false") + " vs " +
           (rb.valid ? "true" : "false");
  }
  if (ra.valid) {
    if (ra.template_name != rb.template_name) return std::string("report.template differs");
    if (ra.event_index != rb.event_index) {
      return "report.event_index: " + Num(ra.event_index) + " vs " + Num(rb.event_index);
    }
    if (ra.event_desc != rb.event_desc) {
      return "report.event: '" + ra.event_desc + "' vs '" + rb.event_desc + "'";
    }
    if (ra.file != rb.file || ra.line != rb.line) return std::string("report.site differs");
    if (ra.observed != rb.observed) {
      return "report.observed: " + Num(ra.observed) + " vs " + Num(rb.observed);
    }
    if (ra.expected_constraint != rb.expected_constraint) {
      return std::string("report.expected differs");
    }
    if (ra.rewound != rb.rewound) {
      return "report.rewound: " + Num(ra.rewound.size()) + " vs " + Num(rb.rewound.size()) +
             " entries";
    }
  }
  return std::nullopt;
}

using InvariantFn =
    std::function<std::optional<std::string>(const GeneratedCase&, ConformanceOutcome*)>;

// Two fresh harnesses agree byte-for-byte; two invokes on one harness agree on
// everything but durations (the TEE's sub-µs overhead remainder legitimately
// carries across invokes).
std::optional<std::string> CheckDeterminism(const GeneratedCase& g, ConformanceOutcome*) {
  Obs first = RunOnce(g, nullptr);
  Obs second = RunOnce(g, nullptr);
  if (auto d = DiffObs(first, second)) {
    return "fresh-harness repeat: " + *d;
  }

  GenHarness h;
  h.dev.Configure(g.script);
  Replayer rep(&h.tee, kGenSigningKey);
  if (!Ok(rep.LoadPackage(PackageOf(g.tpl)))) return std::string("package load failed");
  Status st[2] = {Status::kOk, Status::kOk};
  std::vector<uint8_t> outs[2];
  ReplayStats stats[2];
  for (int round = 0; round < 2; ++round) {
    std::vector<uint8_t> out(g.out_len, 0);
    ReplayArgs args;
    args.scalars = g.scalars;
    args.buffers["out"] = BufferView{out.data(), out.size()};
    args.ro_buffers["payload"] = ConstBufferView(g.payload.data(), g.payload.size());
    auto r = rep.Invoke(g.tpl.entry, args);
    st[round] = r.ok() ? Status::kOk : r.status();
    if (r.ok()) stats[round] = *r;
    outs[round] = std::move(out);
  }
  if (st[0] != st[1]) {
    return std::string("same-harness repeat status: ") + StatusName(st[0]) + " vs " +
           StatusName(st[1]);
  }
  if (outs[0] != outs[1]) return std::string("same-harness repeat output bytes differ");
  if (stats[0].attempts != stats[1].attempts ||
      stats[0].events_executed != stats[1].events_executed ||
      stats[0].resets != stats[1].resets) {
    return std::string("same-harness repeat stats differ");
  }
  return std::nullopt;
}

// text/binary round-trips are fixpoints and the binary-round-tripped template
// replays identically to the original.
std::optional<std::string> CheckSerializeRoundtrip(const GeneratedCase& g,
                                                   ConformanceOutcome*) {
  std::vector<InteractionTemplate> one{g.tpl};
  std::string text1 = TemplatesToText(one);
  auto from_text = TemplatesFromText(text1);
  if (!from_text.ok()) {
    return std::string("text parse failed: ") + StatusName(from_text.status());
  }
  if (from_text->size() != 1) return std::string("text parse yielded != 1 template");
  if (TemplatesToText(*from_text) != text1) return std::string("text round-trip not a fixpoint");

  std::vector<uint8_t> bin1 = TemplatesToBinary(one);
  auto from_bin = TemplatesFromBinary(bin1.data(), bin1.size());
  if (!from_bin.ok()) {
    return std::string("binary parse failed: ") + StatusName(from_bin.status());
  }
  if (from_bin->size() != 1) return std::string("binary parse yielded != 1 template");
  if (g_planted_decoder_bug) AddOneToConstantValues(&(*from_bin)[0].events);
  if (TemplatesToBinary(*from_bin) != bin1) {
    return std::string("binary round-trip not a fixpoint");
  }

  Obs original = RunOnce(g, nullptr);
  Obs rereplay = RunOnce(g, nullptr, &(*from_bin)[0]);
  if (auto d = DiffObs(original, rereplay)) {
    return "round-tripped template replays differently: " + *d;
  }
  return std::nullopt;
}

// The store selects the registered template for the generated scalars, and
// that template's own initial constraint accepts them.
std::optional<std::string> CheckStoreCoherence(const GeneratedCase& g, ConformanceOutcome*) {
  TemplateStore store;
  if (!Ok(store.AddPackage(PackageOf(g.tpl)))) return std::string("AddPackage failed");

  auto sel = store.Select(kGenDriverlet, g.tpl.entry, g.scalars);
  if (!sel.ok()) return std::string("Select: ") + StatusName(sel.status());

  auto src = (*sel)->initial.Eval(g.scalars);
  if (!src.ok() || !*src) return std::string("initial constraint rejects generated scalars");
  return std::nullopt;
}

// The clean run succeeds first-attempt and produces the generator's expected
// output bytes.
std::optional<std::string> CheckBaseline(const GeneratedCase& g, ConformanceOutcome* outcome) {
  Obs o = RunOnce(g, nullptr);
  if (!Ok(o.load)) return std::string("package load: ") + StatusName(o.load);
  if (o.status != Status::kOk) return std::string("clean run: ") + StatusName(o.status);
  if (o.out != g.expected_out) {
    size_t i = 0;
    while (i < o.out.size() && i < g.expected_out.size() && o.out[i] == g.expected_out[i]) ++i;
    return "output mismatch vs generator model at offset " + Num(i);
  }
  if (o.stats.attempts != 1) return "clean run took " + Num(o.stats.attempts) + " attempts";
  if (o.stats.resets != 1) return "clean run resets: " + Num(o.stats.resets) + ", want 1";
  if (o.stats.events_executed == 0) return std::string("clean run executed no events");
  if (outcome != nullptr) {
    outcome->events_executed = o.stats.events_executed;
    outcome->end_us = o.end_us;
  }
  return std::nullopt;
}

// A failed run's record must be a strict prefix of the golden chain: fewer
// events than the template has, folded in template order, never the golden
// value itself.
std::optional<std::string> CheckStrictPrefix(const GeneratedCase& g, const Obs& o,
                                             const std::string& golden) {
  if (o.meas.Hex() == golden) {
    return std::string("still claims the golden measurement");
  }
  if (o.meas.events_measured >= g.tpl.events.size()) {
    return "measured " + Num(o.meas.events_measured) + " of " + Num(g.tpl.events.size()) +
           " events";
  }
  if (Sha256::HexDigest(Measure(g.tpl, o.meas.events_measured)) != o.meas.Hex()) {
    return "chain is not the golden prefix of " + Num(o.meas.events_measured) + " events";
  }
  return std::nullopt;
}

// Runtime integrity measurement (src/core/integrity.h): a complete run's chain
// equals the template's golden measurement and repeats exactly on a fresh
// harness; a failing run's chain is a strict prefix of it, with or without
// seeded faults.
std::optional<std::string> CheckMeasurement(const GeneratedCase& g, ConformanceOutcome*) {
  const std::string golden = GoldenMeasurementHex(g.tpl);
  Obs clean = RunOnce(g, nullptr);
  if (!clean.meas.valid) {
    return std::string("clean run left no measurement record");
  }
  if (clean.status == Status::kOk) {
    if (clean.meas.Hex() != golden) {
      return "successful run's measurement is not the golden hash (got " + clean.meas.Hex() +
             ", want " + golden + ")";
    }
    if (clean.stats.measurement != golden) {
      return std::string("ReplayStats.measurement disagrees with golden hash");
    }
  } else if (auto d = CheckStrictPrefix(g, clean, golden)) {
    return "failed run: " + *d;
  }
  Obs again = RunOnce(g, nullptr);
  if (!again.meas.valid || again.meas.Hex() != clean.meas.Hex()) {
    return std::string("measurement unstable across identical runs");
  }
  // Under seeded faults a *failing* run must never present the golden chain.
  FaultTargets targets;
  targets.device = kGenDeviceId;
  targets.irq_line = kGenIrqLine;
  targets.dma_via_engine = true;
  FaultPlan plan = MakePresetPlan(FaultPlane::kMmio, g.seed, targets);
  Obs faulted = RunOnce(g, &plan);
  if (faulted.status != Status::kOk && faulted.meas.valid) {
    if (auto d = CheckStrictPrefix(g, faulted, golden)) {
      return "faulted failing run: " + *d;
    }
  }
  return std::nullopt;
}

// The same seeded fault plan on two fresh harnesses yields identical runs:
// injection, recovery and every normal-world observable are deterministic.
std::optional<std::string> CheckFaultPlane(const GeneratedCase& g, FaultPlane plane) {
  FaultTargets targets;
  targets.device = kGenDeviceId;
  targets.irq_line = kGenIrqLine;
  targets.dma_via_engine = true;
  FaultPlan plan = MakePresetPlan(plane, g.seed, targets);
  Obs first = RunOnce(g, &plan);
  Obs second = RunOnce(g, &plan);
  if (auto d = DiffObs(first, second)) {
    return std::string("under ") + FaultPlaneName(plane) + " faults: " + *d;
  }
  return std::nullopt;
}

struct NamedInvariant {
  const char* name;
  InvariantFn fn;
};

const std::vector<NamedInvariant>& Registry() {
  static const std::vector<NamedInvariant>* reg = new std::vector<NamedInvariant>{
      {"determinism", CheckDeterminism},
      {"serialize-roundtrip", CheckSerializeRoundtrip},
      {"store-coherence", CheckStoreCoherence},
      {"baseline", CheckBaseline},
      {"fault-mmio",
       [](const GeneratedCase& g, ConformanceOutcome*) {
         return CheckFaultPlane(g, FaultPlane::kMmio);
       }},
      {"fault-dma",
       [](const GeneratedCase& g, ConformanceOutcome*) {
         return CheckFaultPlane(g, FaultPlane::kDma);
       }},
      {"fault-irq",
       [](const GeneratedCase& g, ConformanceOutcome*) {
         return CheckFaultPlane(g, FaultPlane::kIrq);
       }},
      {"measurement", CheckMeasurement},
  };
  return *reg;
}

}  // namespace

std::vector<std::string> AllInvariants() {
  std::vector<std::string> names;
  for (const auto& inv : Registry()) names.emplace_back(inv.name);
  return names;
}

std::vector<std::string> ReproInvariants() {
  std::vector<std::string> names;
  for (const auto& inv : Registry()) {
    if (std::string_view(inv.name) != "baseline") names.emplace_back(inv.name);
  }
  return names;
}

void PlantDecoderBug(bool on) { g_planted_decoder_bug = on; }

ConformanceOutcome RunConformance(const GeneratedCase& g,
                                  const std::vector<std::string>& invariants) {
  ConformanceOutcome outcome;
  for (const std::string& name : invariants) {
    const NamedInvariant* found = nullptr;
    for (const auto& inv : Registry()) {
      if (name == inv.name) {
        found = &inv;
        break;
      }
    }
    if (found == nullptr) {
      outcome.failures.push_back({name, "unknown invariant"});
      continue;
    }
    ++outcome.invariants_run;
    if (auto msg = found->fn(g, &outcome)) {
      outcome.failures.push_back({name, *msg});
    }
  }
  return outcome;
}

ConformanceOutcome RunConformance(const GeneratedCase& g) {
  return RunConformance(g, AllInvariants());
}

// ---------------------------------------------------------------------------
// Symbol closure
// ---------------------------------------------------------------------------

namespace {

bool ExprClosed(const ExprRef& e, const std::set<std::string>& bound) {
  if (e == nullptr) return true;
  std::set<std::string> inputs;
  e->CollectInputs(&inputs);
  for (const auto& s : inputs) {
    if (bound.count(s) == 0) return false;
  }
  return true;
}

bool ConstraintClosed(const Constraint& c, const std::set<std::string>& bound) {
  std::set<std::string> inputs;
  c.CollectInputs(&inputs);
  for (const auto& s : inputs) {
    if (bound.count(s) == 0) return false;
  }
  return true;
}

bool EventsClosed(const std::vector<TemplateEvent>& events, std::set<std::string>* bound) {
  for (const TemplateEvent& ev : events) {
    if (!ExprClosed(ev.addr, *bound) || !ExprClosed(ev.value, *bound) ||
        !ExprClosed(ev.buf_offset, *bound)) {
      return false;
    }
    if (!ev.body.empty()) {
      // A poll that succeeds immediately never runs its body, so body bindings
      // must not leak into the outer scope.
      std::set<std::string> body_bound = *bound;
      if (!EventsClosed(ev.body, &body_bound)) return false;
    }
    // The executor binds before evaluating the event constraint, so the
    // constraint may reference the event's own binding.
    if (!ev.bind.empty()) bound->insert(ev.bind);
    if (!ConstraintClosed(ev.constraint, *bound)) return false;
  }
  return true;
}

}  // namespace

bool SymbolClosureValid(const InteractionTemplate& tpl) {
  std::set<std::string> bound;
  for (const ParamSpec& p : tpl.params) {
    if (!p.is_buffer) bound.insert(p.name);
  }
  if (!ConstraintClosed(tpl.initial, bound)) return false;
  return EventsClosed(tpl.events, &bound);
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

namespace {

// Expression fields of a TemplateEvent the simplification pass rewrites.
ExprRef* EventExprField(TemplateEvent* ev, int field) {
  switch (field) {
    case 0: return &ev->value;
    case 1: return &ev->addr;
    default: return &ev->buf_offset;
  }
}

// Smaller replacement candidates for |e|: its operand subtrees, then the
// trivial constants.
std::vector<ExprRef> SimplerExprs(const ExprRef& e) {
  std::vector<ExprRef> out;
  if (e == nullptr || e->is_const()) return out;
  if (e->lhs() != nullptr) out.push_back(e->lhs());
  if (e->rhs() != nullptr) out.push_back(e->rhs());
  out.push_back(Expr::Const(0));
  out.push_back(Expr::Const(1));
  return out;
}

}  // namespace

Result<ShrinkResult> Shrink(const GeneratedCase& g,
                            const std::vector<std::string>& invariants) {
  ConformanceOutcome base = RunConformance(g, invariants);
  if (base.ok()) return Status::kInvalidArg;

  // Anchor on a self-relative invariant when one failed: "baseline" compares
  // against the generator's expected bytes, which stop being meaningful the
  // moment events are removed.
  std::string anchor = base.failures[0].invariant;
  for (const auto& f : base.failures) {
    if (f.invariant != "baseline") {
      anchor = f.invariant;
      break;
    }
  }
  const std::vector<std::string> anchor_set{anchor};

  ShrinkResult result;
  result.invariant = anchor;
  result.original_events = g.tpl.events.size();

  constexpr int kMaxSteps = 600;
  GeneratedCase cur = g;
  int steps = 0;
  auto still_fails = [&](const GeneratedCase& cand) {
    if (steps >= kMaxSteps) return false;
    ++steps;
    if (!SymbolClosureValid(cand.tpl)) return false;
    return !RunConformance(cand, anchor_set).ok();
  };

  // Pass 1: event-list bisection. Remove halves, then quarters, ... then
  // single events, repeating until a full sweep removes nothing.
  bool progress = true;
  while (progress && steps < kMaxSteps) {
    progress = false;
    for (size_t chunk = std::max<size_t>(cur.tpl.events.size() / 2, 1);; chunk /= 2) {
      size_t i = 0;
      while (i < cur.tpl.events.size() && steps < kMaxSteps) {
        GeneratedCase cand = cur;
        auto& evs = cand.tpl.events;
        size_t end = std::min(i + chunk, evs.size());
        evs.erase(evs.begin() + static_cast<long>(i), evs.begin() + static_cast<long>(end));
        if (still_fails(cand)) {
          cur = std::move(cand);
          progress = true;  // retry the same index against the shorter list
        } else {
          i += chunk;
        }
      }
      if (chunk == 1) break;
    }
  }

  // Pass 2: operand simplification — shrink each event's expressions and
  // constraints toward constants while the anchor invariant keeps failing.
  for (size_t ei = 0; ei < cur.tpl.events.size() && steps < kMaxSteps; ++ei) {
    if (!cur.tpl.events[ei].constraint.empty()) {
      GeneratedCase cand = cur;
      cand.tpl.events[ei].constraint = Constraint();
      if (still_fails(cand)) cur = std::move(cand);
    }
    if (!cur.tpl.events[ei].body.empty()) {
      GeneratedCase cand = cur;
      cand.tpl.events[ei].body.clear();
      if (still_fails(cand)) cur = std::move(cand);
    }
    for (int field = 0; field < 3; ++field) {
      bool changed = true;
      while (changed && steps < kMaxSteps) {
        changed = false;
        ExprRef e = *EventExprField(&cur.tpl.events[ei], field);
        for (const ExprRef& simpler : SimplerExprs(e)) {
          GeneratedCase cand = cur;
          *EventExprField(&cand.tpl.events[ei], field) = simpler;
          if (still_fails(cand)) {
            cur = std::move(cand);
            changed = true;
            break;
          }
        }
      }
    }
    // Constraint atoms that survived wholesale removal: simplify their sides.
    size_t atom_count = cur.tpl.events[ei].constraint.atoms().size();
    for (size_t ai = 0; ai < atom_count && steps < kMaxSteps; ++ai) {
      for (int side = 0; side < 2; ++side) {
        bool changed = true;
        while (changed && steps < kMaxSteps) {
          changed = false;
          const ConstraintAtom& atom = cur.tpl.events[ei].constraint.atoms()[ai];
          ExprRef e = side == 0 ? atom.lhs : atom.rhs;
          for (const ExprRef& simpler : SimplerExprs(e)) {
            GeneratedCase cand = cur;
            Constraint rebuilt;
            const auto& atoms = cand.tpl.events[ei].constraint.atoms();
            for (size_t k = 0; k < atoms.size(); ++k) {
              ConstraintAtom a = atoms[k];
              if (k == ai) {
                (side == 0 ? a.lhs : a.rhs) = simpler;
              }
              rebuilt.AddAtom(std::move(a));
            }
            cand.tpl.events[ei].constraint = std::move(rebuilt);
            if (still_fails(cand)) {
              cur = std::move(cand);
              changed = true;
              break;
            }
          }
        }
      }
    }
  }

  result.reduced = std::move(cur);
  result.steps = steps;
  return result;
}

// ---------------------------------------------------------------------------
// Repro files
// ---------------------------------------------------------------------------

namespace {

constexpr char kReproHeader[] = "driverlet-repro v1";

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string HexBytes(const std::vector<uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  s.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    s.push_back(digits[b >> 4]);
    s.push_back(digits[b & 0xf]);
  }
  return s;
}

Result<std::vector<uint8_t>> ParseHexBytes(std::string_view tok) {
  if (tok.size() % 2 != 0) return Status::kCorrupt;
  std::vector<uint8_t> out;
  out.reserve(tok.size() / 2);
  for (size_t i = 0; i < tok.size(); i += 2) {
    auto hi = ParseU64(std::string("0x") + tok[i]);
    auto lo = ParseU64(std::string("0x") + tok[i + 1]);
    if (!hi.ok() || !lo.ok()) return Status::kCorrupt;
    out.push_back(static_cast<uint8_t>((*hi << 4) | *lo));
  }
  return out;
}

}  // namespace

std::string ReproToString(const GeneratedCase& g, const std::string& invariant) {
  std::string s;
  s += kReproHeader;
  s += '\n';
  s += "seed " + std::to_string(g.seed) + "\n";
  s += "invariant " + invariant + "\n";
  s += "outlen " + std::to_string(g.out_len) + "\n";
  s += "irqdelay " + std::to_string(g.script.irq_delay_us) + "\n";
  for (const auto& [name, value] : g.scalars) {
    s += "scalar " + name + " " + std::to_string(value) + "\n";
  }
  if (!g.payload.empty()) {
    s += "payload " + HexBytes(g.payload) + "\n";
  }
  for (const auto& [off, value] : g.script.initial_regs) {
    s += "reg " + Hex(off) + " " + Hex(value) + "\n";
  }
  for (const auto& [off, queue] : g.script.read_queues) {
    s += "queue " + Hex(off);
    for (uint32_t v : queue) {
      s += ' ';
      s += Hex(v);
    }
    s += "\n";
  }
  for (const auto& [off, value] : g.script.doorbell_sets) {
    s += "dbset " + Hex(off) + " " + Hex(value) + "\n";
  }
  s += "template\n";
  s += TemplatesToText({g.tpl});
  return s;
}

Result<Repro> ParseRepro(std::string_view text) {
  Repro repro;
  size_t pos = 0;
  bool saw_header = false;
  bool in_template = false;
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
    if (line == "template") {
      in_template = true;
      break;
    }
    if (line.empty()) continue;

    auto toks = SplitWs(line);
    if (toks.empty()) continue;
    std::string_view key = toks[0];
    if (key == "seed" && toks.size() == 2) {
      DLT_ASSIGN_OR_RETURN(repro.c.seed, ParseU64(toks[1]));
    } else if (key == "invariant" && toks.size() == 2) {
      repro.invariant = std::string(toks[1]);
    } else if (key == "outlen" && toks.size() == 2) {
      uint64_t v;
      DLT_ASSIGN_OR_RETURN(v, ParseU64(toks[1]));
      repro.c.out_len = static_cast<size_t>(v);
    } else if (key == "irqdelay" && toks.size() == 2) {
      DLT_ASSIGN_OR_RETURN(repro.c.script.irq_delay_us, ParseU64(toks[1]));
    } else if (key == "scalar" && toks.size() == 3) {
      uint64_t v;
      DLT_ASSIGN_OR_RETURN(v, ParseU64(toks[2]));
      repro.c.scalars[std::string(toks[1])] = v;
    } else if (key == "payload" && toks.size() == 2) {
      DLT_ASSIGN_OR_RETURN(repro.c.payload, ParseHexBytes(toks[1]));
    } else if (key == "reg" && toks.size() == 3) {
      uint64_t off, v;
      DLT_ASSIGN_OR_RETURN(off, ParseU64(toks[1]));
      DLT_ASSIGN_OR_RETURN(v, ParseU64(toks[2]));
      repro.c.script.initial_regs[off] = static_cast<uint32_t>(v);
    } else if (key == "dbset" && toks.size() == 3) {
      uint64_t off, v;
      DLT_ASSIGN_OR_RETURN(off, ParseU64(toks[1]));
      DLT_ASSIGN_OR_RETURN(v, ParseU64(toks[2]));
      repro.c.script.doorbell_sets[off] = static_cast<uint32_t>(v);
    } else if (key == "queue" && toks.size() >= 2) {
      uint64_t off;
      DLT_ASSIGN_OR_RETURN(off, ParseU64(toks[1]));
      std::vector<uint32_t> q;
      for (size_t i = 2; i < toks.size(); ++i) {
        uint64_t v;
        DLT_ASSIGN_OR_RETURN(v, ParseU64(toks[i]));
        q.push_back(static_cast<uint32_t>(v));
      }
      repro.c.script.read_queues[off] = std::move(q);
    } else {
      return Status::kCorrupt;
    }
  }
  if (!saw_header || !in_template) return Status::kCorrupt;

  auto templates = TemplatesFromText(text.substr(pos));
  if (!templates.ok()) return templates.status();
  if (templates->size() != 1) return Status::kCorrupt;
  repro.c.tpl = std::move((*templates)[0]);
  return repro;
}

Status WriteRepro(const std::string& path, const GeneratedCase& g,
                  const std::string& invariant) {
  std::string body = ReproToString(g, invariant);
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::kIoError;
  size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return written == body.size() ? Status::kOk : Status::kIoError;
}

Result<Repro> ReadRepro(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::kNotFound;
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return ParseRepro(text);
}

}  // namespace dlt
