#include "src/record/template_builder.h"

#include <iterator>
#include <optional>

namespace dlt {

namespace {

// Matches atoms of the form  bind <cmp> C  or  (bind & M) <cmp> C.
bool ExtractPollCond(const ConstraintAtom& atom, const std::string& bind, uint32_t* mask,
                     uint32_t* want, Cmp* cmp) {
  if (atom.rhs == nullptr || !atom.rhs->is_const()) {
    return false;
  }
  const ExprRef& l = atom.lhs;
  if (l == nullptr) {
    return false;
  }
  uint64_t m = 0xffffffffull;
  if (l->op() == ExprOp::kAnd) {
    if (l->lhs() != nullptr && l->lhs()->is_input() && l->lhs()->input_name() == bind &&
        l->rhs() != nullptr && l->rhs()->is_const()) {
      m = l->rhs()->constant();
    } else if (l->rhs() != nullptr && l->rhs()->is_input() && l->rhs()->input_name() == bind &&
               l->lhs() != nullptr && l->lhs()->is_const()) {
      m = l->lhs()->constant();
    } else {
      return false;
    }
  } else if (l->is_input() && l->input_name() == bind) {
    m = 0xffffffffull;
  } else {
    return false;
  }
  *mask = static_cast<uint32_t>(m);
  *want = static_cast<uint32_t>(atom.rhs->constant());
  *cmp = atom.cmp;
  return true;
}

struct PollUnit {
  size_t start;         // index of the read event
  size_t len;           // 1 (read) or 2 (read + delay)
  uint32_t mask = 0;
  uint32_t want = 0;
  Cmp cmp = Cmp::kEq;  // this iteration's atom comparison
  uint64_t delay_us = 0;
};

// Tries to parse a poll unit starting at |i|. Returns nullopt when the event is
// not a candidate (wrong kind, no single own-bind condition, ...).
template <typename Events>
std::optional<PollUnit> ParseUnit(const Events& events, size_t i) {
  const TemplateEvent& e = events[i];
  if (e.kind != EventKind::kShmRead && e.kind != EventKind::kRegRead) {
    return std::nullopt;
  }
  if (e.constraint.atoms().size() != 1 || e.bind.empty()) {
    return std::nullopt;
  }
  PollUnit u;
  u.start = i;
  u.len = 1;
  if (!ExtractPollCond(e.constraint.atoms()[0], e.bind, &u.mask, &u.want, &u.cmp)) {
    return std::nullopt;
  }
  if (i + 1 < events.size() && events[i + 1].kind == EventKind::kDelay &&
      events[i + 1].value != nullptr && events[i + 1].value->is_const()) {
    u.len = 2;
    u.delay_us = events[i + 1].value->constant();
  }
  return u;
}

// Whether units |a| and |b| of |events| are iterations of one loop, up to the
// polarity of their comparison: the same kind of read of the same location
// (register, or shared-memory address expression) under the same mask and
// wanted value. A read's own bind never occurs in its address, so the
// addresses compare as they are.
template <typename Events>
bool SameLoop(const Events& events, const PollUnit& a, const PollUnit& b) {
  const TemplateEvent& x = events[a.start];
  const TemplateEvent& y = events[b.start];
  if (x.kind != y.kind || a.mask != b.mask || a.want != b.want) {
    return false;
  }
  return x.kind == EventKind::kShmRead ? Expr::Equal(x.addr, y.addr)
                                       : x.device == y.device && x.reg_off == y.reg_off;
}

// Lifts the loops of |events| in place and returns how many events remain in
// its prefix. The write index |w| never passes the read index |i|, so
// ParseUnit's lookahead only reads recorded events.
template <typename Events>
size_t LiftInPlace(Events* events, int* lifted) {
  Events& ev = *events;
  size_t w = 0;
  size_t i = 0;
  auto keep = [&] {
    if (w != i) {
      ev[w] = std::move(ev[i]);
    }
    ++w;
    ++i;
  };
  while (i < ev.size()) {
    std::optional<PollUnit> first = ParseUnit(ev, i);
    if (!first.has_value()) {
      keep();
      continue;
    }
    // Gather the maximal run of iterations of one loop.
    std::vector<PollUnit> run{*first};
    size_t j = i + first->len;
    while (j < ev.size()) {
      std::optional<PollUnit> u = ParseUnit(ev, j);
      if (!u.has_value() || !SameLoop(ev, *first, *u)) {
        break;
      }
      run.push_back(*u);
      j += u->len;
      if (u->cmp == first->cmp) {
        continue;  // still failing iterations
      }
      break;  // polarity flipped: terminal iteration reached
    }
    // A loop = >= 1 failing iteration followed by a terminal one whose atom is
    // exactly the negation of the failing iterations'. Anything else is kept.
    bool is_loop = run.size() >= 2;
    if (is_loop) {
      for (size_t k = 0; k + 1 < run.size(); ++k) {
        if (run[k].cmp != NegateCmp(run.back().cmp)) {
          is_loop = false;
          break;
        }
      }
    }
    if (!is_loop) {
      keep();
      continue;
    }
    const PollUnit& terminal = run.back();
    TemplateEvent& read0 = ev[run.front().start];
    TemplateEvent poll;
    poll.kind = read0.kind == EventKind::kShmRead ? EventKind::kPollShm : EventKind::kPollReg;
    poll.device = read0.device;
    poll.reg_off = read0.reg_off;
    poll.addr = std::move(read0.addr);
    poll.bind = ev[terminal.start].bind;  // the terminal value may feed later events
    poll.mask = terminal.mask;
    poll.want = terminal.want;
    poll.poll_cmp = terminal.cmp;
    poll.interval_us = run.front().delay_us;
    poll.timeout_us = 1'000'000;
    poll.recorded_iters = static_cast<uint32_t>(run.size());
    poll.state_changing = true;
    poll.file = std::move(read0.file);
    poll.line = read0.line;
    ev[w++] = std::move(poll);
    ++*lifted;
    i = terminal.start + 1;  // terminal iteration has no trailing delay consumed
  }
  return w;
}

}  // namespace

int LiftPollingLoops(std::vector<TemplateEvent>* events) {
  int lifted = 0;
  events->resize(LiftInPlace(events, &lifted));
  return lifted;
}

Result<InteractionTemplate> BuildTemplate(RawRecording&& raw) {
  InteractionTemplate t;
  t.entry = std::move(raw.entry);
  t.name = std::move(raw.name);
  t.primary_device = raw.primary_device;
  t.params = std::move(raw.params);
  t.initial = std::move(raw.initial);
  int lifted = 0;
  size_t kept = LiftInPlace(&raw.events, &lifted);
  t.events.reserve(kept);
  std::move(raw.events.begin(), raw.events.begin() + kept, std::back_inserter(t.events));
  return t;
}

}  // namespace dlt
