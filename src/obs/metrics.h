// Metrics registry: named monotonic counters and latency histograms. Metric
// objects are registered once and never deallocated while the registry lives,
// so hot paths may cache the returned pointers; Reset() zeroes values but
// keeps registrations (cached pointers stay valid). All updates are relaxed
// atomics — cheap, and correct for the multi-threaded future.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dlt {

class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// Instantaneous level with a high-watermark: queue depths, shard occupancy,
// open sessions. Add/Sub from any thread; max() remembers the highest level
// ever Set/Add-ed (not reset by Sub), so a fleet run can report peak backlog.
class Gauge {
 public:
  void Set(int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    AtomicMaxI64(max_, v);
  }
  void Add(int64_t n = 1) {
    int64_t now = v_.fetch_add(n, std::memory_order_relaxed) + n;
    AtomicMaxI64(max_, now);
  }
  void Sub(int64_t n = 1) { v_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void Reset() {
    v_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  static void AtomicMaxI64(std::atomic<int64_t>& a, int64_t v) {
    int64_t cur = a.load(std::memory_order_relaxed);
    while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<int64_t> v_{0};
  std::atomic<int64_t> max_{0};
};

// Latency histogram with power-of-two buckets: bucket i counts values v with
// 2^(i-1) <= v < 2^i (bucket 0 counts v == 0). Unit is whatever the caller
// records — replay latencies use microseconds of SimClock virtual time.
class Histogram {
 public:
  static constexpr int kBuckets = 44;

  void Record(uint64_t v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const;  // 0 when empty
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;
  // Upper bound of the bucket holding the nearest-rank p-th percentile sample
  // (rank ceil(p/100 * count), 0 < p <= 100), clamped to [min(), max()] so a
  // quantile never leaves the observed range.
  uint64_t Percentile(double p) const;
  uint64_t bucket(int i) const { return buckets_[i].load(std::memory_order_relaxed); }

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

class MetricsRegistry {
 public:
  // Finds or registers. Returned references remain valid for the registry's
  // lifetime; registration takes a mutex, so cache the result off hot paths.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Visits every metric in registration order.
  void ForEachCounter(const std::function<void(const std::string&, const Counter&)>& fn) const;
  void ForEachGauge(const std::function<void(const std::string&, const Gauge&)>& fn) const;
  void ForEachHistogram(const std::function<void(const std::string&, const Histogram&)>& fn) const;

  // Human-readable table of all non-empty metrics.
  std::string Summary() const;

  // Zeroes all values; registrations (and cached pointers) survive.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
};

}  // namespace dlt

#endif  // SRC_OBS_METRICS_H_
