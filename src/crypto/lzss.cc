#include "src/crypto/lzss.h"

#include <array>
#include <cstring>

namespace dlt {

namespace {

constexpr size_t kWindow = 4096;
constexpr size_t kMinMatch = 3;
constexpr size_t kMaxMatch = 18;
constexpr size_t kHashSize = 1 << 13;
// Chains are only followed within the window, so the compressor keeps the
// links of the last kChainSize positions (a power of two above kWindow).
constexpr size_t kChainSize = 1 << 13;
static_assert(kChainSize > kWindow && (kChainSize & (kChainSize - 1)) == 0);

inline uint32_t Hash3(const uint8_t* p) {
  uint32_t v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
               (static_cast<uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - 13);
}

}  // namespace

std::vector<uint8_t> LzssCompress(const void* data, size_t len) {
  const uint8_t* in = static_cast<const uint8_t*>(data);
  std::vector<uint8_t> out;
  out.reserve(len / 2 + 16);
  uint32_t size32 = static_cast<uint32_t>(len);
  out.resize(4);
  std::memcpy(out.data(), &size32, 4);

  // Chained hash table of recent positions.
  std::array<int64_t, kHashSize> head;
  head.fill(-1);
  std::vector<int64_t> prev(kChainSize, -1);

  size_t pos = 0;
  size_t flag_at = 0;
  int flag_bits = 0;
  uint8_t flags = 0;
  auto open_group = [&] {
    flag_at = out.size();
    out.push_back(0);
    flags = 0;
    flag_bits = 0;
  };
  auto close_group = [&] { out[flag_at] = flags; };
  open_group();

  auto emit = [&](bool literal, uint8_t a, uint8_t b) {
    if (flag_bits == 8) {
      close_group();
      open_group();
    }
    if (literal) {
      flags = static_cast<uint8_t>(flags | (1u << flag_bits));
      out.push_back(a);
    } else {
      out.push_back(a);
      out.push_back(b);
    }
    ++flag_bits;
  };

  while (pos < len) {
    size_t best_len = 0;
    size_t best_dist = 0;
    if (pos + kMinMatch <= len) {
      uint32_t h = Hash3(in + pos);
      int64_t cand = head[h];
      int probes = 32;
      while (cand >= 0 && probes-- > 0 && pos - static_cast<size_t>(cand) <= kWindow) {
        size_t cpos = static_cast<size_t>(cand);
        size_t match = 0;
        size_t limit = std::min(kMaxMatch, len - pos);
        while (match < limit && in[cpos + match] == in[pos + match]) {
          ++match;
        }
        if (match > best_len) {
          best_len = match;
          best_dist = pos - cpos;
          if (match == kMaxMatch) {
            break;
          }
        }
        cand = prev[cpos & (kChainSize - 1)];
      }
      prev[pos & (kChainSize - 1)] = head[h];
      head[h] = static_cast<int64_t>(pos);
    }
    if (best_len >= kMinMatch) {
      // distance-1 in 12 bits, length-kMinMatch in 4 bits.
      uint16_t token = static_cast<uint16_t>(((best_dist - 1) << 4) | (best_len - kMinMatch));
      emit(false, static_cast<uint8_t>(token & 0xff), static_cast<uint8_t>(token >> 8));
      // Index skipped positions so later matches can reference them.
      for (size_t i = 1; i < best_len && pos + i + kMinMatch <= len; ++i) {
        uint32_t h = Hash3(in + pos + i);
        prev[(pos + i) & (kChainSize - 1)] = head[h];
        head[h] = static_cast<int64_t>(pos + i);
      }
      pos += best_len;
    } else {
      emit(true, in[pos], 0);
      ++pos;
    }
  }
  close_group();
  return out;
}

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
        size_t mlen = static_cast<size_t>(token & 0xf) + kMinMatch;
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
