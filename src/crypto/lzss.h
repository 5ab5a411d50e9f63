// LZSS compression (4 KB window, greedy longest match). Driverlet packages ship
// compressed into the TEE and are decompressed by the replayer before use
// (paper §5 "decompresses the interaction template package within the TEE";
// §7.3.4 reports compressed sizes of 6-26 KB per device).
//
// Stream format: little-endian u32 uncompressed size, then token groups of
// 8 items preceded by a flag byte (bit i set = literal byte, clear = match).
// A match is two bytes: 12-bit distance (1-4096), 4-bit length (3-18). The
// compressor is the developer-side package writer
// (src/record/package_writer.h); the TEE only decompresses. LzssDecompress
// refuses a size header larger than the stream can expand to (144 output
// bytes per 17 input bytes) before it allocates the output.
#ifndef SRC_CRYPTO_LZSS_H_
#define SRC_CRYPTO_LZSS_H_

#include <cstdint>
#include <vector>

#include "src/soc/status.h"

namespace dlt {

inline constexpr size_t kLzssWindow = 4096;
inline constexpr size_t kLzssMinMatch = 3;
inline constexpr size_t kLzssMaxMatch = 18;

Result<std::vector<uint8_t>> LzssDecompress(const void* data, size_t len);

}  // namespace dlt

#endif  // SRC_CRYPTO_LZSS_H_
