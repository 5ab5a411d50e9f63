// Human-readable template serialization. The paper's recorder "emits templates
// as human-readable documents" (§7.3.4); this is that format. It is for review
// and repro files only: packages carry the binary form
// (src/core/serialize_binary.h), and the TEE never parses text.
#ifndef SRC_RECORD_SERIALIZE_TEXT_H_
#define SRC_RECORD_SERIALIZE_TEXT_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/core/interaction_template.h"

namespace dlt {

std::string TemplateToText(const InteractionTemplate& t);
std::string TemplatesToText(const std::vector<InteractionTemplate>& templates);

Result<std::vector<InteractionTemplate>> TemplatesFromText(std::string_view text);

// Inverses of Expr::ToString() (expr := term | '(' expr op expr ')' |
// '(~' expr ')'; term := 0x<hex> | <decimal> | identifier),
// Constraint::ToString() and EventKindName.
Result<ExprRef> ParseExpr(std::string_view text);
Result<Constraint> ParseConstraint(std::string_view text);
Result<EventKind> EventKindFromName(std::string_view name);

// Integer and token helpers shared by every text artifact (templates, repro
// files, boundary programs, quotes). ParseU64 takes decimal or 0x-prefixed
// hex and returns kCorrupt for anything else, including overflow. SplitWs
// splits a line on runs of spaces.
Result<uint64_t> ParseU64(std::string_view s);
std::vector<std::string_view> SplitWs(std::string_view line);

}  // namespace dlt

#endif  // SRC_RECORD_SERIALIZE_TEXT_H_
