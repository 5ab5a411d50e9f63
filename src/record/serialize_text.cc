#include "src/record/serialize_text.h"

#include <cctype>
#include <charconv>
#include <sstream>

namespace dlt {

namespace {

// Recursive-descent parser for the Expr::ToString() grammar.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<ExprRef> ParseExpr() {
    SkipWs();
    if (Eof()) {
      return Status::kCorrupt;
    }
    if (Peek() == '(') {
      ++pos_;
      SkipWs();
      if (!Eof() && Peek() == '~') {
        ++pos_;
        DLT_ASSIGN_OR_RETURN(ExprRef inner, ParseExpr());
        if (!Consume(')')) {
          return Status::kCorrupt;
        }
        return Expr::Not(std::move(inner));
      }
      DLT_ASSIGN_OR_RETURN(ExprRef lhs, ParseExpr());
      SkipWs();
      DLT_ASSIGN_OR_RETURN(ExprOp op, ParseOp());
      DLT_ASSIGN_OR_RETURN(ExprRef rhs, ParseExpr());
      if (!Consume(')')) {
        return Status::kCorrupt;
      }
      return Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return ParseTerm();
  }

  bool AtEnd() {
    SkipWs();
    return Eof();
  }

 private:
  bool Eof() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  void SkipWs() {
    while (!Eof() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (Eof() || Peek() != c) {
      return false;
    }
    ++pos_;
    return true;
  }

  Result<ExprOp> ParseOp() {
    SkipWs();
    if (Eof()) {
      return Status::kCorrupt;
    }
    char c = Peek();
    switch (c) {
      case '&': ++pos_; return ExprOp::kAnd;
      case '|': ++pos_; return ExprOp::kOr;
      case '^': ++pos_; return ExprOp::kXor;
      case '+': ++pos_; return ExprOp::kAdd;
      case '-': ++pos_; return ExprOp::kSub;
      case '*': ++pos_; return ExprOp::kMul;
      case '/': ++pos_; return ExprOp::kDiv;
      case '%': ++pos_; return ExprOp::kMod;
      case '<':
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '<') {
          pos_ += 2;
          return ExprOp::kShl;
        }
        return Status::kCorrupt;
      case '>':
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
          pos_ += 2;
          return ExprOp::kShr;
        }
        return Status::kCorrupt;
      default:
        return Status::kCorrupt;
    }
  }

  Result<ExprRef> ParseTerm() {
    SkipWs();
    if (Eof()) {
      return Status::kCorrupt;
    }
    char c = Peek();
    if (std::isdigit(static_cast<unsigned char>(c))) {
      uint64_t v = 0;
      if (c == '0' && pos_ + 1 < text_.size() && (text_[pos_ + 1] == 'x' || text_[pos_ + 1] == 'X')) {
        pos_ += 2;
        size_t digits = 0;
        while (!Eof() && std::isxdigit(static_cast<unsigned char>(Peek()))) {
          char d = Peek();
          uint64_t nib = std::isdigit(static_cast<unsigned char>(d))
                             ? static_cast<uint64_t>(d - '0')
                             : static_cast<uint64_t>(std::tolower(d) - 'a' + 10);
          v = (v << 4) | nib;
          ++pos_;
          ++digits;
        }
        if (digits == 0) {
          return Status::kCorrupt;
        }
      } else {
        while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) {
          v = v * 10 + static_cast<uint64_t>(Peek() - '0');
          ++pos_;
        }
      }
      return Expr::Const(v);
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string name;
      while (!Eof() && (std::isalnum(static_cast<unsigned char>(Peek())) || Peek() == '_' ||
                        Peek() == '.')) {
        name.push_back(Peek());
        ++pos_;
      }
      return Expr::Input(std::move(name));
    }
    return Status::kCorrupt;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Result<ConstraintAtom> ParseAtom(std::string_view text) {
  // Find the comparison operator at the top nesting level.
  int depth = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '(') {
      ++depth;
    } else if (c == ')') {
      --depth;
    } else if (depth == 0) {
      Cmp cmp;
      size_t op_len = 0;
      if (c == '=' && i + 1 < text.size() && text[i + 1] == '=') {
        cmp = Cmp::kEq;
        op_len = 2;
      } else if (c == '!' && i + 1 < text.size() && text[i + 1] == '=') {
        cmp = Cmp::kNe;
        op_len = 2;
      } else if (c == '<' && i + 1 < text.size() && text[i + 1] == '=') {
        cmp = Cmp::kLe;
        op_len = 2;
      } else if (c == '>' && i + 1 < text.size() && text[i + 1] == '=') {
        cmp = Cmp::kGe;
        op_len = 2;
      } else if (c == '<' && (i + 1 >= text.size() || text[i + 1] != '<')) {
        cmp = Cmp::kLt;
        op_len = 1;
      } else if (c == '>' && (i + 1 >= text.size() || text[i + 1] != '>')) {
        cmp = Cmp::kGt;
        op_len = 1;
      } else {
        continue;
      }
      DLT_ASSIGN_OR_RETURN(ExprRef lhs, ParseExpr(text.substr(0, i)));
      DLT_ASSIGN_OR_RETURN(ExprRef rhs, ParseExpr(text.substr(i + op_len)));
      return ConstraintAtom{std::move(lhs), cmp, std::move(rhs)};
    }
  }
  return Status::kCorrupt;
}

void AppendEvent(const TemplateEvent& e, int indent, std::ostringstream* os) {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  *os << pad << "ev kind=" << EventKindName(e.kind);
  switch (e.kind) {
    case EventKind::kRegRead:
    case EventKind::kRegWrite:
    case EventKind::kPollReg:
    case EventKind::kPioIn:
    case EventKind::kPioOut:
      *os << "; dev=" << e.device << "; off=0x" << std::hex << e.reg_off << std::dec;
      break;
    default:
      break;
  }
  if (e.addr != nullptr) {
    *os << "; addr=" << e.addr->ToString();
  }
  if (!e.bind.empty()) {
    *os << "; bind=" << e.bind;
  }
  if (e.state_changing) {
    *os << "; sc=1";
  }
  if (!e.constraint.empty()) {
    *os << "; c=" << e.constraint.ToString();
  }
  if (e.value != nullptr) {
    *os << "; value=" << e.value->ToString();
  }
  if (!e.buffer.empty()) {
    *os << "; buffer=" << e.buffer;
  }
  if (e.buf_offset != nullptr) {
    *os << "; bufoff=" << e.buf_offset->ToString();
  }
  if (e.irq_line >= 0) {
    *os << "; irq=" << e.irq_line;
  }
  if (e.kind == EventKind::kPollReg || e.kind == EventKind::kPollShm) {
    *os << "; mask=0x" << std::hex << e.mask << "; want=0x" << e.want << std::dec
        << "; pcmp=" << static_cast<int>(e.poll_cmp) << "; interval=" << e.interval_us
        << "; iters=" << e.recorded_iters;
  }
  if (e.timeout_us != 0) {
    *os << "; timeout=" << e.timeout_us;
  }
  if (!e.file.empty()) {
    *os << "; loc=" << e.file << ":" << e.line;
  }
  if (!e.body.empty()) {
    *os << " {\n";
    for (const auto& child : e.body) {
      AppendEvent(child, indent + 1, os);
    }
    *os << pad << "end\n";
  } else {
    *os << "\n";
  }
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

// Parses an "ev ..." line (without the body) into |out|.
Status ParseEventLine(std::string_view line, TemplateEvent* out) {
  // Split on "; " — expression values never contain ';'.
  std::vector<std::pair<std::string_view, std::string_view>> kvs;
  size_t start = 0;
  while (start <= line.size()) {
    size_t semi = line.find(';', start);
    std::string_view field = Trim(line.substr(start, semi == std::string_view::npos
                                                          ? std::string_view::npos
                                                          : semi - start));
    if (!field.empty()) {
      size_t eq = field.find('=');
      if (eq == std::string_view::npos) {
        return Status::kCorrupt;
      }
      kvs.emplace_back(Trim(field.substr(0, eq)), Trim(field.substr(eq + 1)));
    }
    if (semi == std::string_view::npos) {
      break;
    }
    start = semi + 1;
  }
  for (auto [key, val] : kvs) {
    if (key == "kind") {
      DLT_ASSIGN_OR_RETURN(out->kind, EventKindFromName(val));
    } else if (key == "dev") {
      DLT_ASSIGN_OR_RETURN(uint64_t v, ParseU64(val));
      out->device = static_cast<uint16_t>(v);
    } else if (key == "off") {
      DLT_ASSIGN_OR_RETURN(out->reg_off, ParseU64(val));
    } else if (key == "addr") {
      DLT_ASSIGN_OR_RETURN(out->addr, ParseExpr(val));
    } else if (key == "bind") {
      out->bind = std::string(val);
    } else if (key == "sc") {
      out->state_changing = (val == "1");
    } else if (key == "c") {
      DLT_ASSIGN_OR_RETURN(out->constraint, ParseConstraint(val));
    } else if (key == "value") {
      DLT_ASSIGN_OR_RETURN(out->value, ParseExpr(val));
    } else if (key == "buffer") {
      out->buffer = std::string(val);
    } else if (key == "bufoff") {
      DLT_ASSIGN_OR_RETURN(out->buf_offset, ParseExpr(val));
    } else if (key == "irq") {
      DLT_ASSIGN_OR_RETURN(uint64_t v, ParseU64(val));
      out->irq_line = static_cast<int>(v);
    } else if (key == "mask") {
      DLT_ASSIGN_OR_RETURN(uint64_t v, ParseU64(val));
      out->mask = static_cast<uint32_t>(v);
    } else if (key == "want") {
      DLT_ASSIGN_OR_RETURN(uint64_t v, ParseU64(val));
      out->want = static_cast<uint32_t>(v);
    } else if (key == "pcmp") {
      DLT_ASSIGN_OR_RETURN(uint64_t v, ParseU64(val));
      if (v > static_cast<uint64_t>(Cmp::kGe)) {
        return Status::kCorrupt;
      }
      out->poll_cmp = static_cast<Cmp>(v);
    } else if (key == "interval") {
      DLT_ASSIGN_OR_RETURN(out->interval_us, ParseU64(val));
    } else if (key == "iters") {
      DLT_ASSIGN_OR_RETURN(uint64_t v, ParseU64(val));
      out->recorded_iters = static_cast<uint32_t>(v);
    } else if (key == "timeout") {
      DLT_ASSIGN_OR_RETURN(out->timeout_us, ParseU64(val));
    } else if (key == "loc") {
      size_t colon = val.rfind(':');
      if (colon == std::string_view::npos) {
        return Status::kCorrupt;
      }
      out->file = std::string(val.substr(0, colon));
      DLT_ASSIGN_OR_RETURN(uint64_t ln, ParseU64(val.substr(colon + 1)));
      out->line = static_cast<int>(ln);
    } else {
      return Status::kCorrupt;
    }
  }
  return Status::kOk;
}

class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}
  bool Next(std::string_view* line) {
    while (pos_ < text_.size()) {
      size_t nl = text_.find('\n', pos_);
      std::string_view raw = text_.substr(pos_, nl == std::string_view::npos ? std::string_view::npos
                                                                             : nl - pos_);
      pos_ = (nl == std::string_view::npos) ? text_.size() : nl + 1;
      std::string_view trimmed = Trim(raw);
      if (trimmed.empty() || trimmed.front() == '#') {
        continue;
      }
      *line = trimmed;
      return true;
    }
    return false;
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

// Parses events until a terminator line ("end" for bodies, "endtemplate" for
// the top level) is consumed.
Status ParseEvents(LineReader* reader, std::string_view terminator,
                   std::vector<TemplateEvent>* out) {
  std::string_view line;
  while (reader->Next(&line)) {
    if (line == terminator) {
      return Status::kOk;
    }
    if (line.substr(0, 3) != "ev ") {
      return Status::kCorrupt;
    }
    std::string_view payload = line.substr(3);
    bool has_body = false;
    if (payload.size() >= 1 && payload.back() == '{') {
      has_body = true;
      payload = Trim(payload.substr(0, payload.size() - 1));
    }
    TemplateEvent e;
    DLT_RETURN_IF_ERROR(ParseEventLine(payload, &e));
    if (has_body) {
      DLT_RETURN_IF_ERROR(ParseEvents(reader, "end", &e.body));
    }
    out->push_back(std::move(e));
  }
  return Status::kCorrupt;  // missing terminator
}

}  // namespace

std::string TemplateToText(const InteractionTemplate& t) {
  std::ostringstream os;
  os << "template " << t.name << "\n";
  os << "entry " << t.entry << "\n";
  os << "device " << t.primary_device << "\n";
  if (t.leaves_clean_state) {
    os << "clean 1\n";  // absent: not proven clean, as in packages from before the flag
  }
  for (const auto& p : t.params) {
    os << "param " << p.name << " " << (p.is_buffer ? "buffer" : "scalar") << "\n";
  }
  os << "require " << t.initial.ToString() << "\n";
  for (const auto& e : t.events) {
    AppendEvent(e, 0, &os);
  }
  os << "endtemplate\n";
  return os.str();
}

std::string TemplatesToText(const std::vector<InteractionTemplate>& templates) {
  std::string out;
  for (const auto& t : templates) {
    out += TemplateToText(t);
  }
  return out;
}

Result<std::vector<InteractionTemplate>> TemplatesFromText(std::string_view text) {
  std::vector<InteractionTemplate> out;
  LineReader reader(text);
  std::string_view line;
  while (reader.Next(&line)) {
    if (line.substr(0, 9) != "template ") {
      return Status::kCorrupt;
    }
    InteractionTemplate t;
    t.name = std::string(Trim(line.substr(9)));
    bool saw_require = false;
    // Header lines until "require", then events until "endtemplate".
    while (reader.Next(&line)) {
      if (line.substr(0, 6) == "entry ") {
        t.entry = std::string(Trim(line.substr(6)));
      } else if (line.substr(0, 7) == "device ") {
        DLT_ASSIGN_OR_RETURN(uint64_t v, ParseU64(Trim(line.substr(7))));
        t.primary_device = static_cast<uint16_t>(v);
      } else if (line.substr(0, 6) == "clean ") {
        if (Trim(line.substr(6)) != "1") {
          return Status::kCorrupt;
        }
        t.leaves_clean_state = true;
      } else if (line.substr(0, 6) == "param ") {
        std::string_view rest = Trim(line.substr(6));
        size_t sp = rest.find(' ');
        if (sp == std::string_view::npos) {
          return Status::kCorrupt;
        }
        ParamSpec p;
        p.name = std::string(rest.substr(0, sp));
        p.is_buffer = (Trim(rest.substr(sp + 1)) == "buffer");
        t.params.push_back(std::move(p));
      } else if (line.substr(0, 8) == "require ") {
        DLT_ASSIGN_OR_RETURN(t.initial, ParseConstraint(Trim(line.substr(8))));
        saw_require = true;
        break;
      } else {
        return Status::kCorrupt;
      }
    }
    if (!saw_require) {
      return Status::kCorrupt;
    }
    DLT_RETURN_IF_ERROR(ParseEvents(&reader, "endtemplate", &t.events));
    out.push_back(std::move(t));
  }
  return out;
}

Result<ExprRef> ParseExpr(std::string_view text) {
  Parser p(text);
  DLT_ASSIGN_OR_RETURN(ExprRef e, p.ParseExpr());
  if (!p.AtEnd()) {
    return Status::kCorrupt;
  }
  return e;
}

Result<Constraint> ParseConstraint(std::string_view text) {
  Constraint c;
  // Trim.
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  if (text == "true" || text.empty()) {
    return c;
  }
  size_t start = 0;
  int depth = 0;
  for (size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == '(') {
      ++depth;
    } else if (text[i] == ')') {
      --depth;
    } else if (depth == 0 && text[i] == '&' && text[i + 1] == '&') {
      DLT_ASSIGN_OR_RETURN(ConstraintAtom atom, ParseAtom(text.substr(start, i - start)));
      c.AddAtom(std::move(atom));
      start = i + 2;
      ++i;
    }
  }
  DLT_ASSIGN_OR_RETURN(ConstraintAtom atom, ParseAtom(text.substr(start)));
  c.AddAtom(std::move(atom));
  return c;
}

Result<EventKind> EventKindFromName(std::string_view name) {
  static constexpr EventKind kAll[] = {
      EventKind::kRegRead,     EventKind::kShmRead,   EventKind::kDmaAlloc,
      EventKind::kGetRandBytes, EventKind::kGetTimestamp, EventKind::kWaitIrq,
      EventKind::kCopyFromDma, EventKind::kPioIn,     EventKind::kRegWrite,
      EventKind::kShmWrite,    EventKind::kDelay,     EventKind::kCopyToDma,
      EventKind::kPioOut,      EventKind::kPollReg,   EventKind::kPollShm,
  };
  for (EventKind k : kAll) {
    if (name == EventKindName(k)) {
      return k;
    }
  }
  return Status::kCorrupt;
}

Result<uint64_t> ParseU64(std::string_view s) {
  uint64_t v = 0;
  std::from_chars_result r{};
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    r = std::from_chars(s.data() + 2, s.data() + s.size(), v, 16);
  } else {
    r = std::from_chars(s.data(), s.data() + s.size(), v, 10);
  }
  if (r.ec != std::errc{} || r.ptr != s.data() + s.size()) {
    return Status::kCorrupt;
  }
  return v;
}

std::vector<std::string_view> SplitWs(std::string_view line) {
  std::vector<std::string_view> toks;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) toks.push_back(line.substr(start, i - start));
  }
  return toks;
}

}  // namespace dlt
