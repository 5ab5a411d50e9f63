// Session attestation quotes (ROADMAP item 3, PDRIMA-style): a signed claim
// about what a replay session actually executed. The service keeps one
// PCR-style chain per session — extended with every completed invoke's
// integrity measurement (src/core/integrity.h) — and Attest() wraps that
// chain, the session counters and a caller-supplied nonce into a quote signed
// with the service's package key (HMAC-SHA256 stands in for the asymmetric
// scheme, exactly as package sealing does — see src/crypto/hmac.h).
//
// The TEE only builds and signs quotes. The verifier's side — the text
// artifact `driverletc attest` prints, its parser and VerifyQuote — is
// src/record/quote.h.
#ifndef SRC_TEE_ATTESTATION_H_
#define SRC_TEE_ATTESTATION_H_

#include <string>
#include <string_view>

#include "src/crypto/hmac.h"
#include "src/soc/status.h"

namespace dlt {

// First line of every quote body.
inline constexpr char kQuoteHeader[] = "driverlet-attest v1";

struct AttestationQuote {
  std::string driverlet;
  uint64_t session_id = 0;
  uint64_t invokes = 0;
  uint64_t failures = 0;
  uint64_t measurement_mismatches = 0;
  bool quarantined = false;
  // Session PCR: hex chain over per-invoke measurements, in invoke order.
  std::string session_measurement;
  // Golden-vs-measured hex of the most recent invoke (empty before the first).
  std::string last_measurement;
  std::string nonce;    // caller-chosen freshness token (no spaces/newlines)
  std::string mac;      // hex HMAC-SHA256 over the canonical body
};

// Canonical body the MAC covers (every field except |mac| itself).
std::string QuoteBody(const AttestationQuote& q);

// Computes/refreshes |q->mac| with |key|.
void SignQuote(AttestationQuote* q, std::string_view key);

}  // namespace dlt

#endif  // SRC_TEE_ATTESTATION_H_
