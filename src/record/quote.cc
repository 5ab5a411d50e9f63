#include "src/record/quote.h"

#include "src/record/serialize_text.h"

namespace dlt {

std::string SerializeQuote(const AttestationQuote& q) {
  return QuoteBody(q) + "mac " + q.mac + "\n";
}

Result<AttestationQuote> ParseQuote(std::string_view text) {
  AttestationQuote q;
  bool saw_header = false;
  bool saw_mac = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) {
      eol = text.size();
    }
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (!saw_header) {
      if (line != kQuoteHeader) {
        return Status::kCorrupt;
      }
      saw_header = true;
      continue;
    }
    if (line.empty()) {
      continue;
    }
    size_t sp = line.find(' ');
    std::string_view key = line.substr(0, sp);
    std::string_view val = sp == std::string_view::npos ? std::string_view() : line.substr(sp + 1);
    if (key == "driverlet") {
      q.driverlet = std::string(val);
    } else if (key == "session") {
      DLT_ASSIGN_OR_RETURN(q.session_id, ParseU64(val));
    } else if (key == "invokes") {
      DLT_ASSIGN_OR_RETURN(q.invokes, ParseU64(val));
    } else if (key == "failures") {
      DLT_ASSIGN_OR_RETURN(q.failures, ParseU64(val));
    } else if (key == "mismatches") {
      DLT_ASSIGN_OR_RETURN(q.measurement_mismatches, ParseU64(val));
    } else if (key == "quarantined") {
      q.quarantined = val == "1";
    } else if (key == "measurement") {
      q.session_measurement = std::string(val);
    } else if (key == "last") {
      q.last_measurement = std::string(val);
    } else if (key == "nonce") {
      q.nonce = std::string(val);
    } else if (key == "mac") {
      q.mac = std::string(val);
      saw_mac = true;
    } else {
      return Status::kCorrupt;
    }
  }
  if (!saw_header || !saw_mac) {
    return Status::kCorrupt;
  }
  return q;
}

bool VerifyQuote(const AttestationQuote& q, std::string_view key) {
  std::string body = QuoteBody(q);
  return q.mac == Sha256::HexDigest(HmacSha256(key, body.data(), body.size()));
}

}  // namespace dlt
