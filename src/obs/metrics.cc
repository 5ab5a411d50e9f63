#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

namespace dlt {

namespace {
int BucketOf(uint64_t v) {
  if (v == 0) {
    return 0;
  }
  int b = 64 - std::countl_zero(v);  // v in [2^(b-1), 2^b)
  return b < Histogram::kBuckets ? b : Histogram::kBuckets - 1;
}

// Relaxed CAS-min/max; exact under any interleaving.
void AtomicMin(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
void AtomicMax(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace

void Histogram::Record(uint64_t v) {
  buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  AtomicMin(min_, v);
  AtomicMax(max_, v);
}

uint64_t Histogram::min() const {
  uint64_t m = min_.load(std::memory_order_relaxed);
  return m == UINT64_MAX ? 0 : m;
}

double Histogram::mean() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

uint64_t Histogram::Percentile(double p) const {
  uint64_t n = count();
  if (n == 0) {
    return 0;
  }
  // Nearest rank: the smallest sample with at least p% of samples at or below.
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(n) / 100.0));
  rank = std::clamp<uint64_t>(rank, 1, n);
  uint64_t bound = max();
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += bucket(i);
    if (seen >= rank) {
      bound = i == 0 ? 0 : (1ull << i) - 1;  // inclusive upper bound of bucket i
      break;
    }
  }
  // A bucket bound can lie outside the observed range; the true sample cannot.
  return std::clamp(bound, min(), max());
}

void Histogram::Reset() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, c] : counters_) {
    if (n == name) {
      return *c;
    }
  }
  counters_.emplace_back(std::string(name), std::make_unique<Counter>());
  return *counters_.back().second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, g] : gauges_) {
    if (n == name) {
      return *g;
    }
  }
  gauges_.emplace_back(std::string(name), std::make_unique<Gauge>());
  return *gauges_.back().second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, h] : histograms_) {
    if (n == name) {
      return *h;
    }
  }
  histograms_.emplace_back(std::string(name), std::make_unique<Histogram>());
  return *histograms_.back().second;
}

void MetricsRegistry::ForEachCounter(
    const std::function<void(const std::string&, const Counter&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [n, c] : counters_) {
    fn(n, *c);
  }
}

void MetricsRegistry::ForEachGauge(
    const std::function<void(const std::string&, const Gauge&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [n, g] : gauges_) {
    fn(n, *g);
  }
}

void MetricsRegistry::ForEachHistogram(
    const std::function<void(const std::string&, const Histogram&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [n, h] : histograms_) {
    fn(n, *h);
  }
}

std::string MetricsRegistry::Summary() const {
  std::ostringstream os;
  os << "counters:\n";
  ForEachCounter([&os](const std::string& n, const Counter& c) {
    if (c.value() != 0) {
      os << "  " << n;
      for (size_t i = n.size(); i < 32; ++i) {
        os << ' ';
      }
      os << c.value() << "\n";
    }
  });
  os << "gauges: value / max\n";
  ForEachGauge([&os](const std::string& n, const Gauge& g) {
    if (g.value() != 0 || g.max() != 0) {
      os << "  " << n;
      for (size_t i = n.size(); i < 32; ++i) {
        os << ' ';
      }
      os << g.value() << " / " << g.max() << "\n";
    }
  });
  os << "histograms (us): count / mean / p50 / p99 / max\n";
  ForEachHistogram([&os](const std::string& n, const Histogram& h) {
    if (h.count() != 0) {
      os << "  " << n;
      for (size_t i = n.size(); i < 32; ++i) {
        os << ' ';
      }
      os << h.count() << " / " << static_cast<uint64_t>(h.mean()) << " / " << h.Percentile(50)
         << " / " << h.Percentile(99) << " / " << h.max() << "\n";
    }
  });
  return os.str();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, c] : counters_) {
    c->Reset();
  }
  for (auto& [n, g] : gauges_) {
    g->Reset();
  }
  for (auto& [n, h] : histograms_) {
    h->Reset();
  }
}

}  // namespace dlt
