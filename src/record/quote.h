// The verifier's side of session attestation quotes (src/tee/attestation.h):
// the text artifact `driverletc attest` prints, its parser, and the MAC check.
// The TEE builds and signs quotes; it never parses or verifies one.
#ifndef SRC_RECORD_QUOTE_H_
#define SRC_RECORD_QUOTE_H_

#include <string>
#include <string_view>

#include "src/tee/attestation.h"

namespace dlt {

// Full text artifact: body plus the trailing "mac <hex>" line.
std::string SerializeQuote(const AttestationQuote& q);
Result<AttestationQuote> ParseQuote(std::string_view text);

// True when |q.mac| is the valid MAC of the quote body under |key|.
bool VerifyQuote(const AttestationQuote& q, std::string_view key);

}  // namespace dlt

#endif  // SRC_RECORD_QUOTE_H_
