// Compact binary template serialization (varint/TLV). The paper ships templates
// as human-readable documents and notes "further converting them to binary form
// is likely to reduce their sizes" (§7.3.4) — this implements that conversion;
// bench/memory_overhead quantifies the win.
//
// Two wire versions share the "BDLT" magic (docs/template_store.md):
//  - v1: templates stored back to back, parsed eagerly and in full.
//  - v2: a length-prefixed, offset-table layout built for zero-copy loads. A
//    fixed header carries the template count and directory length; the
//    directory holds everything selection, admission and the replayer's
//    reset decision need (name, entry, primary device, flags, params, the
//    initial constraint, touched devices) plus each template's
//    body offset/length; event bodies live in a separate section that is only
//    parsed when a template is actually executed. PackageView is the
//    non-owning reader: Parse() touches header + directory bytes only,
//    HydrateEvents() decodes one body on demand.
#ifndef SRC_CORE_SERIALIZE_BINARY_H_
#define SRC_CORE_SERIALIZE_BINARY_H_

#include <cstdint>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/core/interaction_template.h"

namespace dlt {

std::vector<uint8_t> TemplatesToBinary(const std::vector<InteractionTemplate>& templates);

// v2: directory + body sections (see PackageView). Byte-stable for equal input.
std::vector<uint8_t> TemplatesToBinaryV2(const std::vector<InteractionTemplate>& templates);

// Parses either wire version (dispatches on the version byte); v2 inputs are
// hydrated eagerly. Existing callers keep working with both encodings.
Result<std::vector<InteractionTemplate>> TemplatesFromBinary(const uint8_t* data, size_t len);

// Appends one template's canonical v1 encoding (the unit the v2 body section
// and the content hash are built from).
void AppendTemplateBinary(const InteractionTemplate& t, std::vector<uint8_t>* out);

// Content identity of a template: SHA-256 over its canonical v1 encoding.
Sha256::Digest TemplateContentHash(const InteractionTemplate& t);

// Test hook: arms a deliberate decoder bug — every constant event `value`
// decodes one larger than it was written. Exists so the conformance harness
// can prove its serialize-roundtrip invariant catches real codec bugs; never
// set outside tests.
void SetBinaryValueQuirkForTest(bool on);

// Zero-copy reader over a v2 payload. Non-owning: |data| must outlive the
// view (the mmap'ed package file, see package.h MappedPackage). Parse()
// validates the header, bounds-checks every directory entry against the body
// section and materializes the cheap per-template metadata; event bodies stay
// untouched until HydrateEvents().
class PackageView {
 public:
  static Result<PackageView> Parse(const uint8_t* data, size_t len);

  size_t size() const { return entries_.size(); }
  // Template metadata with an EMPTY events vector (directory content only).
  const InteractionTemplate& header(size_t i) const { return entries_[i].header; }
  // Devices the template's events touch (recorded at seal time), sorted.
  const std::vector<uint16_t>& devices(size_t i) const { return entries_[i].devices; }
  // Decodes template |i|'s event body into |tpl->events| (replacing it).
  // kCorrupt when the body slice does not decode to exactly one event list.
  Status HydrateEvents(size_t i, InteractionTemplate* tpl) const;

  // Bytes Parse() actually decoded (header + directory) vs the whole payload —
  // the zero-copy accounting bench/store_scale reports.
  size_t directory_bytes() const { return directory_bytes_; }
  size_t total_bytes() const { return total_bytes_; }

 private:
  struct Entry {
    InteractionTemplate header;
    std::vector<uint16_t> devices;
    size_t body_off = 0;  // into |body_|
    size_t body_len = 0;
  };

  const uint8_t* body_ = nullptr;
  size_t body_len_ = 0;
  std::vector<Entry> entries_;
  size_t directory_bytes_ = 0;
  size_t total_bytes_ = 0;
};

}  // namespace dlt

#endif  // SRC_CORE_SERIALIZE_BINARY_H_
