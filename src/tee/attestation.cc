#include "src/tee/attestation.h"

namespace dlt {

std::string QuoteBody(const AttestationQuote& q) {
  std::string s;
  s += kQuoteHeader;
  s += '\n';
  s += "driverlet " + q.driverlet + "\n";
  s += "session " + std::to_string(q.session_id) + "\n";
  s += "invokes " + std::to_string(q.invokes) + "\n";
  s += "failures " + std::to_string(q.failures) + "\n";
  s += "mismatches " + std::to_string(q.measurement_mismatches) + "\n";
  s += std::string("quarantined ") + (q.quarantined ? "1" : "0") + "\n";
  s += "measurement " + q.session_measurement + "\n";
  if (!q.last_measurement.empty()) {
    s += "last " + q.last_measurement + "\n";
  }
  s += "nonce " + q.nonce + "\n";
  return s;
}

void SignQuote(AttestationQuote* q, std::string_view key) {
  std::string body = QuoteBody(*q);
  q->mac = Sha256::HexDigest(HmacSha256(key, body.data(), body.size()));
}

}  // namespace dlt
