// The developer-side package writer: serializes templates to binary v1,
// LZSS-compresses them and seals the result in a signed "DLTPKG01" envelope
// (docs/template_format.md). The TEE only opens packages (src/core/package.h);
// each format's constants live in the TEE header that reads it, so writer and
// reader share one definition.
#ifndef SRC_RECORD_PACKAGE_WRITER_H_
#define SRC_RECORD_PACKAGE_WRITER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/core/package.h"

namespace dlt {

struct PackageSizes {
  size_t serialized = 0;  // before compression
  size_t compressed = 0;  // LZSS payload
  size_t sealed = 0;      // full envelope incl. signature
};

// Serializes + compresses + signs |driverlet|'s templates, reading them in
// place. |key| is the developer signing key.
std::vector<uint8_t> SealPackage(std::string_view driverlet,
                                 const std::vector<InteractionTemplate>& templates,
                                 std::string_view key, PackageSizes* sizes = nullptr);

// Seals a caller-supplied SERIALIZED (pre-compression) binary-v1 payload into
// a correctly signed envelope. This exists so the boundary fuzzer can mutate
// the payload the parser sees while keeping the signature valid — a correctly
// signed envelope with a garbage interior is exactly the adversarial input
// RegisterDriverlet must reject cleanly.
std::vector<uint8_t> SealPackageRaw(std::string_view driverlet,
                                    const std::vector<uint8_t>& payload, std::string_view key);

// The binary-v1 payload ("BDLT", src/core/serialize_binary.h).
std::vector<uint8_t> TemplatesToBinary(const std::vector<InteractionTemplate>& templates);

// LZSS stream in the format LzssDecompress reads (src/crypto/lzss.h).
std::vector<uint8_t> LzssCompress(const void* data, size_t len);

}  // namespace dlt

#endif  // SRC_RECORD_PACKAGE_WRITER_H_
