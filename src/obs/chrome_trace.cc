#include "src/obs/chrome_trace.h"

#include <cstdio>
#include <map>
#include <sstream>

namespace dlt {

namespace {

void JsonString(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

// Stable tid per category so every category renders as its own track.
int TidOf(TraceKind k, std::map<std::string, int>* tids) {
  std::string cat = TraceKindCategory(k);
  auto it = tids->find(cat);
  if (it != tids->end()) {
    return it->second;
  }
  int tid = static_cast<int>(tids->size()) + 1;
  (*tids)[cat] = tid;
  return tid;
}

}  // namespace

void ExportChromeTrace(const std::vector<TraceEvent>& events, const MetricsRegistry* metrics,
                       std::ostream& os) {
  std::map<std::string, int> tids;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) {
      os << ",";
    }
    first = false;
    bool span = e.dur_us != 0 || e.kind == TraceKind::kReplayInvoke ||
                e.kind == TraceKind::kReplayEvent || e.kind == TraceKind::kDmaTransfer ||
                e.kind == TraceKind::kIrqWait;
    os << "{\"name\":";
    JsonString(os, e.name[0] != '\0' ? std::string_view(e.name) : TraceKindName(e.kind));
    os << ",\"cat\":";
    JsonString(os, TraceKindCategory(e.kind));
    os << ",\"ph\":\"" << (span ? 'X' : 'I') << "\",\"ts\":" << e.ts_us;
    if (span) {
      os << ",\"dur\":" << e.dur_us;
    } else {
      os << ",\"s\":\"t\"";  // instant scope: thread
    }
    os << ",\"pid\":1,\"tid\":" << TidOf(e.kind, &tids);
    os << ",\"args\":{\"kind\":";
    JsonString(os, TraceKindName(e.kind));
    os << ",\"arg0\":" << e.arg0 << ",\"arg1\":" << e.arg1 << ",\"device\":" << e.device << "}}";
  }
  // Name the per-category tracks.
  for (const auto& [cat, tid] : tids) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":";
    JsonString(os, cat);
    os << "}}";
  }
  os << "]";
  if (metrics != nullptr) {
    os << ",\"otherData\":{\"counters\":{";
    bool c_first = true;
    metrics->ForEachCounter([&os, &c_first](const std::string& n, const Counter& c) {
      if (!c_first) {
        os << ",";
      }
      c_first = false;
      JsonString(os, n);
      os << ":" << c.value();
    });
    os << "},\"histograms\":{";
    bool h_first = true;
    metrics->ForEachHistogram([&os, &h_first](const std::string& n, const Histogram& h) {
      if (!h_first) {
        os << ",";
      }
      h_first = false;
      JsonString(os, n);
      os << ":{\"count\":" << h.count() << ",\"sum\":" << h.sum() << ",\"min\":" << h.min()
         << ",\"max\":" << h.max() << ",\"p50\":" << h.Percentile(50)
         << ",\"p99\":" << h.Percentile(99) << "}";
    });
    os << "}}";
  }
  os << "}";
}

std::string ChromeTraceJson(const std::vector<TraceEvent>& events,
                            const MetricsRegistry* metrics) {
  std::ostringstream os;
  ExportChromeTrace(events, metrics, os);
  return os.str();
}

std::string MetricsSummary(const MetricsRegistry& metrics) {
  std::ostringstream os;
  os << "counters:\n";
  metrics.ForEachCounter([&os](const std::string& n, const Counter& c) {
    if (c.value() != 0) {
      os << "  " << n;
      for (size_t i = n.size(); i < 32; ++i) {
        os << ' ';
      }
      os << c.value() << "\n";
    }
  });
  os << "gauges: value / max\n";
  metrics.ForEachGauge([&os](const std::string& n, const Gauge& g) {
    if (g.value() != 0 || g.max() != 0) {
      os << "  " << n;
      for (size_t i = n.size(); i < 32; ++i) {
        os << ' ';
      }
      os << g.value() << " / " << g.max() << "\n";
    }
  });
  os << "histograms (us): count / mean / p50 / p99 / max\n";
  metrics.ForEachHistogram([&os](const std::string& n, const Histogram& h) {
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

}  // namespace dlt
