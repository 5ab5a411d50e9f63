#include "src/soc/sim_clock.h"

#include <algorithm>

namespace dlt {

SimClock::EventId SimClock::ScheduleAt(uint64_t t_us, std::function<void()> fn) {
  EventId id = next_id_++;
  heap_.push_back(Entry{std::max(t_us, now_us_), id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<Entry>{});
  return id;
}

bool SimClock::Cancel(EventId id) {
  for (Entry& e : heap_) {
    if (e.id == id) {
      bool live = e.fn != nullptr;
      e.fn = nullptr;
      return live;
    }
  }
  return false;  // fired or never scheduled
}

size_t SimClock::pending_events() const {
  return static_cast<size_t>(
      std::count_if(heap_.begin(), heap_.end(), [](const Entry& e) { return e.fn != nullptr; }));
}

SimClock::Entry SimClock::PopNext() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<Entry>{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  return e;
}

void SimClock::Fire(Entry& e) {
  now_us_ = e.t;
  e.fn();
}

void SimClock::AdvanceTo(uint64_t t_us) {
  if (t_us < now_us_) {
    return;
  }
  while (!heap_.empty() && heap_.front().t <= t_us) {
    Entry e = PopNext();
    if (e.fn) {
      Fire(e);
    }
  }
  now_us_ = t_us;
}

std::optional<uint64_t> SimClock::NextEventTime() {
  while (!heap_.empty() && !heap_.front().fn) {
    PopNext();
  }
  if (heap_.empty()) {
    return std::nullopt;
  }
  return heap_.front().t;
}

bool SimClock::StepToNextEvent() {
  while (!heap_.empty()) {
    Entry e = PopNext();
    if (e.fn) {
      Fire(e);
      return true;
    }
  }
  return false;
}

}  // namespace dlt
