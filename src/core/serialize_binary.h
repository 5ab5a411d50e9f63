// Compact binary template serialization (varint/TLV). The paper ships templates
// as human-readable documents and notes "further converting them to binary form
// is likely to reduce their sizes" (§7.3.4) — this implements that conversion;
// bench/memory_overhead quantifies the win. It is the only payload a package
// carries, so this decoder is the TEE's only parser of signed bytes; the text
// form (src/record/serialize_text.h) is a developer format.
//
// Layout ("BDLT" magic, version byte 1): templates stored back to back, parsed
// eagerly and in full (docs/template_format.md). Any other version byte, and
// any value wider than its field, is refused with kCorrupt. The encoder is the
// developer-side writer (src/record/package_writer.h), which shares the
// constants below.
#ifndef SRC_CORE_SERIALIZE_BINARY_H_
#define SRC_CORE_SERIALIZE_BINARY_H_

#include <cstdint>
#include <vector>

#include "src/core/interaction_template.h"

namespace dlt {

inline constexpr uint32_t kBinaryMagic = 0x544c4442;  // "BDLT"
inline constexpr uint8_t kBinaryVersion = 1;
// Per-template flag byte in the template header. The decoder rejects every
// other bit, so a flag a newer writer sets is never dropped.
inline constexpr uint8_t kBinaryFlagLeavesClean = 0x1;

Result<std::vector<InteractionTemplate>> TemplatesFromBinary(const uint8_t* data, size_t len);

}  // namespace dlt

#endif  // SRC_CORE_SERIALIZE_BINARY_H_
