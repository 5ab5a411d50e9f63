// Driverlet packages: serialized interaction templates, LZSS-compressed and
// HMAC-signed. The trustlet statically links the replayer plus a "compressed
// package of interaction templates" (paper §5); the replayer verifies the
// developer signature before use and decompresses inside the TEE.
//
// One envelope ("DLTPKG01", docs/template_format.md) carrying one payload
// format, binary v1 (serialize_binary.h): verified, decompressed and fully
// parsed before any template is usable. Any other magic or payload format is
// refused. The TEE never seals: the writer is src/record/package_writer.h,
// which shares the envelope constants below.
#ifndef SRC_CORE_PACKAGE_H_
#define SRC_CORE_PACKAGE_H_

#include <string>
#include <vector>

#include "src/core/interaction_template.h"

namespace dlt {

// Envelope magic, and the only format byte this build writes or accepts:
// binary v1. Any other, including 0 (the retired text payload), fails closed.
inline constexpr char kPackageMagic[8] = {'D', 'L', 'T', 'P', 'K', 'G', '0', '1'};
inline constexpr uint8_t kPackageFormatBinaryV1 = 1;

struct DriverletPackage {
  std::string driverlet;  // e.g. "mmc", "usb", "camera"
  std::vector<InteractionTemplate> templates;
};

// Verifies the signature, decompresses and parses. Any tampering, and any
// envelope or payload this build does not write, yields kCorrupt.
Result<DriverletPackage> OpenPackage(const uint8_t* data, size_t len, std::string_view key);

}  // namespace dlt

#endif  // SRC_CORE_PACKAGE_H_
