#include "src/core/integrity.h"

#include <cstring>

namespace dlt {

namespace {

// Domain separator hashed into every chain's initial value.
constexpr char kIntegritySeed[] = "dlt-integrity-v1";

void PutU64(Sha256* h, uint64_t v) {
  uint8_t b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  h->Update(b, sizeof(b));
}

void PutStr(Sha256* h, const std::string& s) {
  PutU64(h, s.size());
  h->Update(s.data(), s.size());
}

}  // namespace

Sha256::Digest IntegritySeed() {
  return Sha256::Hash(kIntegritySeed, std::strlen(kIntegritySeed));
}

Sha256::Digest Measure(const InteractionTemplate& tpl, size_t events) {
  Sha256::Digest value = IntegritySeed();
  Sha256 begin;
  begin.Update(value.data(), value.size());
  PutStr(&begin, tpl.name);
  PutStr(&begin, tpl.entry);
  PutU64(&begin, tpl.events.size());
  value = begin.Finalize();
  for (size_t i = 0; i < events && i < tpl.events.size(); ++i) {
    const TemplateEvent& e = tpl.events[i];
    Sha256 h;
    h.Update(value.data(), value.size());
    // Static template structure only: runtime values (bound reads,
    // timestamps, poll iteration counts) would break cross-run parity.
    PutU64(&h, i);
    PutU64(&h, static_cast<uint64_t>(e.kind));
    PutU64(&h, e.device);
    PutU64(&h, e.reg_off);
    PutU64(&h, static_cast<uint64_t>(static_cast<int64_t>(e.irq_line)));
    PutStr(&h, e.bind);
    PutStr(&h, e.buffer);
    value = h.Finalize();
  }
  return value;
}

Sha256::Digest Extend(const Sha256::Digest& pcr, const Sha256::Digest& d) {
  Sha256 h;
  h.Update(pcr.data(), pcr.size());
  h.Update(d.data(), d.size());
  return h.Finalize();
}

Sha256::Digest GoldenMeasurement(const InteractionTemplate& tpl) {
  return Measure(tpl, tpl.events.size());
}

std::string GoldenMeasurementHex(const InteractionTemplate& tpl) {
  return Sha256::HexDigest(GoldenMeasurement(tpl));
}

}  // namespace dlt
