// Discrete-event virtual clock. All device latencies, IRQ deliveries and software
// costs in the simulation are expressed against this clock, which makes every
// benchmark fully deterministic (DESIGN.md §5.6/§5.7).
#ifndef SRC_SOC_SIM_CLOCK_H_
#define SRC_SOC_SIM_CLOCK_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace dlt {

class SimClock {
 public:
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  SimClock() = default;
  SimClock(const SimClock&) = delete;
  SimClock& operator=(const SimClock&) = delete;

  uint64_t now_us() const { return now_us_; }

  // Schedules |fn| to fire at now + delay. Callbacks run when the clock advances
  // past their deadline; they may schedule further events.
  EventId ScheduleIn(uint64_t delay_us, std::function<void()> fn) {
    return ScheduleAt(now_us_ + delay_us, std::move(fn));
  }
  EventId ScheduleAt(uint64_t t_us, std::function<void()> fn);

  // Cancels a scheduled event. Returns false if it already fired, was already
  // cancelled or is unknown.
  bool Cancel(EventId id);

  // Advances virtual time by |delta_us|, firing every event due on the way.
  void Advance(uint64_t delta_us) { AdvanceTo(now_us_ + delta_us); }
  void AdvanceTo(uint64_t t_us);

  // Jumps to the next scheduled event and fires it. Returns false when the
  // queue is empty (time does not move).
  bool StepToNextEvent();

  // Deadline of the earliest live event; nullopt when none is scheduled.
  std::optional<uint64_t> NextEventTime();

  // Events scheduled and neither fired nor cancelled.
  size_t pending_events() const;

 private:
  // A cancelled entry keeps its place in the heap with an empty |fn|.
  struct Entry {
    uint64_t t;
    EventId id;
    std::function<void()> fn;
    // Ids are unique, so (t, id) is a total order and same-deadline events
    // fire in schedule order.
    bool operator>(const Entry& other) const {
      return t != other.t ? t > other.t : id > other.id;
    }
  };

  // Removes the earliest entry, moving its callback out.
  Entry PopNext();
  void Fire(Entry& e);

  uint64_t now_us_ = 0;
  EventId next_id_ = 1;
  std::vector<Entry> heap_;  // min-heap on (t, id): std::greater<Entry>
};

}  // namespace dlt

#endif  // SRC_SOC_SIM_CLOCK_H_
