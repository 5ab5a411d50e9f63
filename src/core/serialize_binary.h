// Compact binary template serialization (varint/TLV). The paper ships templates
// as human-readable documents and notes "further converting them to binary form
// is likely to reduce their sizes" (§7.3.4) — this implements that conversion;
// bench/memory_overhead quantifies the win. It is the only payload a package
// carries, so this decoder is the TEE's only parser of signed bytes; the text
// form (src/record/serialize_text.h) is a developer format.
//
// Layout ("BDLT" magic, version byte 1): templates stored back to back, parsed
// eagerly and in full (docs/template_format.md). Any other version byte, and
// any value wider than its field, is refused with kCorrupt.
#ifndef SRC_CORE_SERIALIZE_BINARY_H_
#define SRC_CORE_SERIALIZE_BINARY_H_

#include <cstdint>
#include <vector>

#include "src/core/interaction_template.h"

namespace dlt {

std::vector<uint8_t> TemplatesToBinary(const std::vector<InteractionTemplate>& templates);

Result<std::vector<InteractionTemplate>> TemplatesFromBinary(const uint8_t* data, size_t len);

// Test hook: arms a deliberate decoder bug — every constant event `value`
// decodes one larger than it was written. Exists so the conformance harness
// can prove its serialize-roundtrip invariant catches real codec bugs; never
// set outside tests.
void SetBinaryValueQuirkForTest(bool on);

}  // namespace dlt

#endif  // SRC_CORE_SERIALIZE_BINARY_H_
