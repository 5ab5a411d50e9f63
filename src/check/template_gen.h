// TemplateGen: seeded generator of arbitrary-but-valid interaction templates
// for property-based conformance testing (docs/conformance.md). Each seed
// deterministically yields a GeneratedCase: an InteractionTemplate mixing
// register reads/writes, polling loops, shared-memory word runs (bulk
// coalescing stress), DMA descriptor chains through the system DMA engine,
// IRQ waits, PIO block transfers and random operand expressions/constraints —
// plus the matching GenDevice script that makes every device-side observation
// the template constrains actually come true at replay time, the concrete
// invoke scalars, the input payload and the expected output bytes.
//
// Validity rules the generator maintains by construction (the conformance
// invariants rely on them):
//  - every symbol an expression references is bound earlier (scalar param,
//    scripted read, poll success value or dma_alloc);
//  - every expression's concrete value is computable at generation time, so
//    readback constraints are satisfiable on the clean path — random and
//    timestamp values bind to symbols that are never referenced again;
//  - shm reads and DMA copies only touch bytes the same invoke wrote, so
//    repeat invokes on one harness observe identical data;
//  - each scripted register offset is used by exactly one block, so read
//    queues cannot desynchronize across blocks.
#ifndef SRC_CHECK_TEMPLATE_GEN_H_
#define SRC_CHECK_TEMPLATE_GEN_H_

#include <map>
#include <string>
#include <vector>

#include "src/check/gen_device.h"
#include "src/core/interaction_template.h"

namespace dlt {

// Identity of the synthetic driverlet every generated case belongs to. The
// conformance harness attaches GenDevice right after Machine's built-in DMA
// engine (id 0), so generated templates always name it as device 1.
inline constexpr const char kGenDriverlet[] = "gen";
inline constexpr const char kGenEntry[] = "replay_gen";
inline constexpr uint16_t kGenDeviceId = 1;
inline constexpr uint16_t kGenDmaDeviceId = 0;

struct GenConfig {
  uint64_t seed = 1;
  int min_blocks = 2;
  int max_blocks = 6;
  // Adds one 30-level-deep operand expression (written, read back and
  // constrained), the shape a bounded evaluation stack would reject.
  bool force_deep_expr = false;
};

// One self-contained conformance case: the template plus everything needed to
// replay it (device script, invoke arguments) and to judge a clean run
// (expected output bytes).
struct GeneratedCase {
  uint64_t seed = 0;
  InteractionTemplate tpl;
  GenScript script;
  std::map<std::string, uint64_t> scalars;
  std::vector<uint8_t> payload;       // bound read-only as "payload"
  size_t out_len = 0;                 // writable "out" buffer size
  std::vector<uint8_t> expected_out;  // clean-run contents of "out"
};

// Deterministic splitmix64 stream for generation draws.
class GenRng {
 public:
  explicit GenRng(uint64_t seed) : state_(seed + 0x9e3779b97f4a7c15ull) {}
  uint64_t Next();
  // Uniform in [lo, hi], inclusive.
  uint64_t Range(uint64_t lo, uint64_t hi) { return lo + Next() % (hi - lo + 1); }
  bool Chance(int pct) { return Next() % 100 < static_cast<uint64_t>(pct); }

 private:
  uint64_t state_;
};

class TemplateGen {
 public:
  explicit TemplateGen(GenConfig cfg) : cfg_(cfg), rng_(cfg.seed) {}

  GeneratedCase Generate();

 private:
  struct Region {
    std::string sym;              // dma_alloc binding
    std::vector<uint8_t> bytes;   // concrete content after this invoke's writes
    std::vector<bool> init;       // which bytes the invoke wrote
  };

  // Block generators; each appends events and updates the gentime model.
  void RegBlock();
  void ScriptedReadBlock();
  void PollBlock();
  void ShmRunBlock();
  void DmaDescriptorBlock();
  void PayloadCopyBlock();
  void PioBlock();
  void IrqBlock();
  void MiscBlock();
  void ExprBlock();
  // The fTPM-pipe shape: PIO transfers whose lengths are symbolic functions of
  // a scalar parameter (variable-length arg slots, postfix length folding)
  // plus an unconstrained statistic read.
  void VarLenPioBlock();
  // The crypto-queue shape: a descriptor ring in DMA memory with symbolic
  // control words, a doorbell kick, the completion IRQ, and an IRQ-gated poll
  // of a consumer index that the doorbell's completion publishes.
  void DescriptorRingBlock();

  // Random operand expression over known-value symbols; never divides by a
  // non-constant and keeps shifts < 32 so evaluation cannot fail.
  ExprRef RandomExpr(int depth);
  uint64_t ValueOf(const ExprRef& e) const;

  // Appends a readback constraint for |bind| whose rhs is either the folded
  // concrete value or the originating expression masked to 32 bits.
  Constraint ReadbackConstraint(const std::string& bind, const ExprRef& value_expr,
                                uint32_t concrete);

  TemplateEvent Event(EventKind kind);
  void Emit(TemplateEvent e) { case_.tpl.events.push_back(std::move(e)); }
  uint64_t NextOff();
  // Mirrors CmaPool's bump allocator (16 KB alignment) so every dma_alloc
  // address is known at generation time: allocation order is part of the
  // template, so addresses are as deterministic as everything else.
  uint64_t ModelAlloc(uint64_t size);
  std::string NewSym(const char* prefix);
  void AddKnown(const std::string& name, uint64_t value);
  // Copies [src_off, src_off+len) of |r| into "out", updating expected bytes.
  void CopyRegionToOut(const Region& r, uint64_t src_off, uint64_t len);
  void WriteRegionWord(Region* r, uint64_t byte_off, const ExprRef& value_expr);

  GenConfig cfg_;
  GenRng rng_;
  GeneratedCase case_;
  Bindings known_;                   // symbol -> concrete value at gentime
  std::vector<std::string> pool_;    // known_ keys usable in expressions
  std::vector<Region> regions_;
  uint64_t next_off_ = 0x10;
  uint64_t next_alloc_ = 0;
  size_t out_cursor_ = 0;
  int sym_counter_ = 0;
};

GeneratedCase GenerateCase(const GenConfig& cfg);
GeneratedCase GenerateCase(uint64_t seed);

}  // namespace dlt

#endif  // SRC_CHECK_TEMPLATE_GEN_H_
