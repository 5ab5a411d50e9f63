// Driverlet packages: serialized interaction templates, LZSS-compressed and
// HMAC-signed. The trustlet statically links the replayer plus a "compressed
// package of interaction templates" (paper §5); the replayer verifies the
// developer signature before use and decompresses inside the TEE.
//
// One envelope ("DLTPKG01", docs/template_format.md) carrying one payload
// format, binary v1 (serialize_binary.h): verified, decompressed and fully
// parsed before any template is usable. Any other magic or payload format is
// refused. Sealing lives here too, so the envelope layout is in one file.
#ifndef SRC_CORE_PACKAGE_H_
#define SRC_CORE_PACKAGE_H_

#include <string>
#include <vector>

#include "src/core/interaction_template.h"

namespace dlt {

struct DriverletPackage {
  std::string driverlet;  // e.g. "mmc", "usb", "camera"
  std::vector<InteractionTemplate> templates;
};

struct PackageSizes {
  size_t serialized = 0;  // before compression
  size_t compressed = 0;  // LZSS payload
  size_t sealed = 0;      // full envelope incl. signature
};

// Serializes + compresses + signs. |key| is the developer signing key.
std::vector<uint8_t> SealPackage(const DriverletPackage& pkg, std::string_view key,
                                 PackageSizes* sizes = nullptr);

// Seals a caller-supplied SERIALIZED (pre-compression) binary-v1 payload into
// a correctly signed envelope. This exists so the boundary fuzzer can mutate
// the payload the parser sees while keeping the signature valid — a correctly
// signed envelope with a garbage interior is exactly the adversarial input
// RegisterDriverlet must reject cleanly.
std::vector<uint8_t> SealPackageRaw(std::string_view driverlet,
                                    const std::vector<uint8_t>& payload, std::string_view key);

// Verifies the signature, decompresses and parses. Any tampering, and any
// envelope or payload this build does not write, yields kCorrupt.
Result<DriverletPackage> OpenPackage(const uint8_t* data, size_t len, std::string_view key);

}  // namespace dlt

#endif  // SRC_CORE_PACKAGE_H_
