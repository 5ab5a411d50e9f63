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
  std::vector<uint8_t> out;
  out.reserve(expect);
  size_t pos = 4;
  while (out.size() < expect) {
    if (pos >= len) {
      return Status::kCorrupt;
    }
    uint8_t flags = in[pos++];
    for (int bit = 0; bit < 8 && out.size() < expect; ++bit) {
      if (flags & (1u << bit)) {
        if (pos >= len) {
          return Status::kCorrupt;
        }
        out.push_back(in[pos++]);
      } else {
        if (pos + 1 >= len) {
          return Status::kCorrupt;
        }
        uint16_t token = static_cast<uint16_t>(in[pos] | (in[pos + 1] << 8));
        pos += 2;
        size_t dist = static_cast<size_t>((token >> 4)) + 1;
        size_t mlen = static_cast<size_t>(token & 0xf) + kLzssMinMatch;
        if (dist > out.size()) {
          return Status::kCorrupt;
        }
        size_t start = out.size() - dist;
        for (size_t i = 0; i < mlen; ++i) {
          out.push_back(out[start + i]);
        }
      }
    }
  }
  if (out.size() != expect) {
    return Status::kCorrupt;
  }
  return out;
}

}  // namespace dlt
