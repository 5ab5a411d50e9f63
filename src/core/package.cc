#include "src/core/package.h"

#include <cstring>

#include "src/core/serialize_binary.h"
#include "src/crypto/hmac.h"
#include "src/crypto/lzss.h"

namespace dlt {

namespace {
constexpr char kMagic[8] = {'D', 'L', 'T', 'P', 'K', 'G', '0', '1'};
// The only format byte this build writes or accepts: binary v1. Any other,
// including 0 (the retired text payload), fails closed.
constexpr uint8_t kFormatBinaryV1 = 1;

// Envelope body: magic | format | name_len | name | payload_len(u32) |
// payload, followed by the HMAC trailer.
std::vector<uint8_t> SealEnvelope(std::string_view driverlet, const std::vector<uint8_t>& payload,
                                  std::string_view key) {
  std::vector<uint8_t> out(kMagic, kMagic + 8);
  out.push_back(kFormatBinaryV1);
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

// Verifies the HMAC and the format byte, and locates the payload.
struct Envelope {
  std::string driverlet;
  const uint8_t* payload = nullptr;
  size_t payload_len = 0;
};

Result<Envelope> VerifyEnvelope(const uint8_t* data, size_t len, std::string_view key) {
  constexpr size_t kMinLen = 8 + 2 + 4 + Sha256::kDigestSize;
  if (len < kMinLen || std::memcmp(data, kMagic, 8) != 0) {
    return Status::kCorrupt;
  }
  size_t body_len = len - Sha256::kDigestSize;
  Sha256::Digest mac;
  std::memcpy(mac.data(), data + body_len, Sha256::kDigestSize);
  if (!HmacVerify(key, data, body_len, mac)) {
    return Status::kCorrupt;
  }
  size_t pos = 8;
  if (data[pos++] != kFormatBinaryV1) {
    return Status::kCorrupt;
  }
  Envelope env;
  uint8_t name_len = data[pos++];
  if (pos + name_len + 4 > body_len) {
    return Status::kCorrupt;
  }
  env.driverlet.assign(reinterpret_cast<const char*>(data + pos), name_len);
  pos += name_len;
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, data + pos, 4);
  pos += 4;
  if (pos + payload_len != body_len) {
    return Status::kCorrupt;
  }
  env.payload = data + pos;
  env.payload_len = payload_len;
  return env;
}

}  // namespace

// GCC 12 reports a spurious -Wstringop-overflow deep inside std::vector growth
// for the byte-appends below; the accesses are fully bounded.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"

std::vector<uint8_t> SealPackage(const DriverletPackage& pkg, std::string_view key,
                                 PackageSizes* sizes) {
  std::vector<uint8_t> serialized = TemplatesToBinary(pkg.templates);
  std::vector<uint8_t> compressed = LzssCompress(serialized.data(), serialized.size());
  std::vector<uint8_t> out = SealEnvelope(pkg.driverlet, compressed, key);
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

Result<DriverletPackage> OpenPackage(const uint8_t* data, size_t len, std::string_view key) {
  DLT_ASSIGN_OR_RETURN(Envelope env, VerifyEnvelope(data, len, key));
  DLT_ASSIGN_OR_RETURN(std::vector<uint8_t> serialized,
                       LzssDecompress(env.payload, env.payload_len));
  DriverletPackage pkg;
  pkg.driverlet = std::move(env.driverlet);
  DLT_ASSIGN_OR_RETURN(pkg.templates, TemplatesFromBinary(serialized.data(), serialized.size()));
  return pkg;
}

}  // namespace dlt
