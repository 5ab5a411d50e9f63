#include "src/core/package.h"

#include <cstring>

#include "src/core/serialize_binary.h"
#include "src/crypto/hmac.h"
#include "src/crypto/lzss.h"

namespace dlt {

namespace {

// Verifies the HMAC and the format byte, and locates the payload.
struct Envelope {
  std::string driverlet;
  const uint8_t* payload = nullptr;
  size_t payload_len = 0;
};

Result<Envelope> VerifyEnvelope(const uint8_t* data, size_t len, std::string_view key) {
  constexpr size_t kMinLen = 8 + 2 + 4 + Sha256::kDigestSize;
  if (len < kMinLen || std::memcmp(data, kPackageMagic, 8) != 0) {
    return Status::kCorrupt;
  }
  size_t body_len = len - Sha256::kDigestSize;
  Sha256::Digest mac;
  std::memcpy(mac.data(), data + body_len, Sha256::kDigestSize);
  if (!HmacVerify(key, data, body_len, mac)) {
    return Status::kCorrupt;
  }
  size_t pos = 8;
  if (data[pos++] != kPackageFormatBinaryV1) {
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
