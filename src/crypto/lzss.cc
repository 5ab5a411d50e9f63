#include "src/crypto/lzss.h"

#include <cstring>

namespace dlt {

Result<std::vector<uint8_t>> LzssDecompress(const void* data, size_t len) {
  const uint8_t* in = static_cast<const uint8_t*>(data);
  if (len < 4) {
    return Status::kCorrupt;
  }
  uint32_t expect = 0;
  std::memcpy(&expect, in, 4);
  // A 17-byte group (flag byte and eight 2-byte matches) expands to at most
  // 144 bytes, so a larger header is forged; refuse it before sizing |out|.
  if (uint64_t{expect} * 17 > uint64_t{len - 4} * 144) {
    return Status::kCorrupt;
  }
  std::vector<uint8_t> out(expect);
  size_t n = 0;  // bytes of |out| written
  size_t pos = 4;
  while (n < expect) {
    if (pos >= len) {
      return Status::kCorrupt;
    }
    uint8_t flags = in[pos++];
    for (int bit = 0; bit < 8 && n < expect; ++bit) {
      if (flags & (1u << bit)) {
        if (pos >= len) {
          return Status::kCorrupt;
        }
        out[n++] = in[pos++];
      } else {
        if (pos + 1 >= len) {
          return Status::kCorrupt;
        }
        uint16_t token = static_cast<uint16_t>(in[pos] | (in[pos + 1] << 8));
        pos += 2;
        size_t dist = static_cast<size_t>((token >> 4)) + 1;
        size_t mlen = static_cast<size_t>(token & 0xf) + kLzssMinMatch;
        if (dist > n || mlen > expect - n) {
          return Status::kCorrupt;
        }
        for (size_t i = 0; i < mlen; ++i, ++n) {
          out[n] = out[n - dist];
        }
      }
    }
  }
  return out;
}

}  // namespace dlt
