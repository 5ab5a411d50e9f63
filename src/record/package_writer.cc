#include "src/record/package_writer.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/core/serialize_binary.h"
#include "src/crypto/hmac.h"
#include "src/crypto/lzss.h"

namespace dlt {

namespace {

uint8_t TemplateFlags(const InteractionTemplate& t) {
  return t.leaves_clean_state ? kBinaryFlagLeavesClean : 0;
}

void PutVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

void PutString(const std::string& s, std::vector<uint8_t>* out) {
  PutVarint(s.size(), out);
  out->insert(out->end(), s.begin(), s.end());
}

void PutExpr(const ExprRef& e, std::vector<uint8_t>* out) {
  if (e == nullptr) {
    out->push_back(0xff);  // absent marker
    return;
  }
  out->push_back(static_cast<uint8_t>(e->op()));
  switch (e->op()) {
    case ExprOp::kConst:
      PutVarint(e->constant(), out);
      break;
    case ExprOp::kInput:
      PutString(e->input_name(), out);
      break;
    case ExprOp::kNot:
      PutExpr(e->lhs(), out);
      break;
    default:
      PutExpr(e->lhs(), out);
      PutExpr(e->rhs(), out);
      break;
  }
}

void PutConstraint(const Constraint& c, std::vector<uint8_t>* out) {
  PutVarint(c.atoms().size(), out);
  for (const auto& a : c.atoms()) {
    PutExpr(a.lhs, out);
    out->push_back(static_cast<uint8_t>(a.cmp));
    PutExpr(a.rhs, out);
  }
}

void PutEvent(const TemplateEvent& e, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(e.kind));
  PutVarint(e.device, out);
  PutVarint(e.reg_off, out);
  PutExpr(e.addr, out);
  PutString(e.bind, out);
  out->push_back(e.state_changing ? 1 : 0);
  PutConstraint(e.constraint, out);
  PutExpr(e.value, out);
  PutString(e.buffer, out);
  PutExpr(e.buf_offset, out);
  PutVarint(static_cast<uint64_t>(e.irq_line + 1), out);
  PutVarint(e.mask, out);
  PutVarint(e.want, out);
  out->push_back(static_cast<uint8_t>(e.poll_cmp));
  PutVarint(e.timeout_us, out);
  PutVarint(e.interval_us, out);
  PutVarint(e.recorded_iters, out);
  PutString(e.file, out);
  PutVarint(static_cast<uint64_t>(e.line), out);
  PutVarint(e.body.size(), out);
  for (const auto& child : e.body) {
    PutEvent(child, out);
  }
}

void AppendTemplateBinary(const InteractionTemplate& t, std::vector<uint8_t>* out) {
  PutString(t.name, out);
  PutString(t.entry, out);
  PutVarint(t.primary_device, out);
  out->push_back(TemplateFlags(t));
  PutVarint(t.params.size(), out);
  for (const auto& p : t.params) {
    PutString(p.name, out);
    out->push_back(p.is_buffer ? 1 : 0);
  }
  PutConstraint(t.initial, out);
  PutVarint(t.events.size(), out);
  for (const auto& e : t.events) {
    PutEvent(e, out);
  }
}

constexpr size_t kHashSize = 1 << 13;
// Chains are only followed within the window, so the compressor keeps the
// links of the last kChainSize positions (a power of two above the window).
constexpr size_t kChainSize = 1 << 13;
static_assert(kChainSize > kLzssWindow && (kChainSize & (kChainSize - 1)) == 0);

inline uint32_t Hash3(const uint8_t* p) {
  uint32_t v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
               (static_cast<uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - 13);
}

// Envelope body: magic | format | name_len | name | payload_len(u32) |
// payload, followed by the HMAC trailer.
std::vector<uint8_t> SealEnvelope(std::string_view driverlet, const std::vector<uint8_t>& payload,
                                  std::string_view key) {
  std::vector<uint8_t> out(kPackageMagic, kPackageMagic + 8);
  out.push_back(kPackageFormatBinaryV1);
  out.push_back(static_cast<uint8_t>(driverlet.size()));
  out.insert(out.end(), driverlet.begin(), driverlet.end());
  uint32_t payload_len = static_cast<uint32_t>(payload.size());
  size_t len_at = out.size();
  out.resize(out.size() + 4);
  std::memcpy(out.data() + len_at, &payload_len, 4);
  out.insert(out.end(), payload.begin(), payload.end());
  Sha256::Digest mac = HmacSha256(key, out.data(), out.size());
  out.insert(out.end(), mac.begin(), mac.end());
  return out;
}

}  // namespace

std::vector<uint8_t> TemplatesToBinary(const std::vector<InteractionTemplate>& templates) {
  std::vector<uint8_t> out;
  uint32_t magic = kBinaryMagic;
  out.resize(4);
  std::memcpy(out.data(), &magic, 4);
  out.push_back(kBinaryVersion);
  PutVarint(templates.size(), &out);
  for (const auto& t : templates) {
    AppendTemplateBinary(t, &out);
  }
  return out;
}

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
    if (pos + kLzssMinMatch <= len) {
      uint32_t h = Hash3(in + pos);
      int64_t cand = head[h];
      int probes = 32;
      while (cand >= 0 && probes-- > 0 && pos - static_cast<size_t>(cand) <= kLzssWindow) {
        size_t cpos = static_cast<size_t>(cand);
        size_t match = 0;
        size_t limit = std::min(kLzssMaxMatch, len - pos);
        while (match < limit && in[cpos + match] == in[pos + match]) {
          ++match;
        }
        if (match > best_len) {
          best_len = match;
          best_dist = pos - cpos;
          if (match == kLzssMaxMatch) {
            break;
          }
        }
        cand = prev[cpos & (kChainSize - 1)];
      }
      prev[pos & (kChainSize - 1)] = head[h];
      head[h] = static_cast<int64_t>(pos);
    }
    if (best_len >= kLzssMinMatch) {
      // distance-1 in 12 bits, length-kLzssMinMatch in 4 bits.
      uint16_t token =
          static_cast<uint16_t>(((best_dist - 1) << 4) | (best_len - kLzssMinMatch));
      emit(false, static_cast<uint8_t>(token & 0xff), static_cast<uint8_t>(token >> 8));
      // Index skipped positions so later matches can reference them.
      for (size_t i = 1; i < best_len && pos + i + kLzssMinMatch <= len; ++i) {
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

// GCC 12 reports a spurious -Wstringop-overflow deep inside std::vector growth
// for the byte-appends below; the accesses are fully bounded.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"

std::vector<uint8_t> SealPackage(std::string_view driverlet,
                                 const std::vector<InteractionTemplate>& templates,
                                 std::string_view key, PackageSizes* sizes) {
  std::vector<uint8_t> serialized = TemplatesToBinary(templates);
  std::vector<uint8_t> compressed = LzssCompress(serialized.data(), serialized.size());
  std::vector<uint8_t> out = SealEnvelope(driverlet, compressed, key);
  if (sizes != nullptr) {
    sizes->serialized = serialized.size();
    sizes->compressed = compressed.size();
    sizes->sealed = out.size();
  }
  return out;
}

std::vector<uint8_t> SealPackageRaw(std::string_view driverlet,
                                    const std::vector<uint8_t>& payload, std::string_view key) {
  return SealEnvelope(driverlet, LzssCompress(payload.data(), payload.size()), key);
}

#pragma GCC diagnostic pop

}  // namespace dlt
