// Chrome trace-event JSON exporter: renders a TraceRing snapshot in the
// format chrome://tracing and Perfetto load natively. Spans become "X"
// (complete) events with virtual-microsecond timestamps/durations; instants
// become "I" events; each TraceKind category gets its own named track.
// Metrics, when provided, ride along under the "otherData" key viewers ignore.
// MetricsSummary renders the same registry as a text table for terminals.
#ifndef SRC_OBS_CHROME_TRACE_H_
#define SRC_OBS_CHROME_TRACE_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace_event.h"

namespace dlt {

void ExportChromeTrace(const std::vector<TraceEvent>& events, const MetricsRegistry* metrics,
                       std::ostream& os);

std::string ChromeTraceJson(const std::vector<TraceEvent>& events,
                            const MetricsRegistry* metrics = nullptr);

// Human-readable table of all non-empty metrics.
std::string MetricsSummary(const MetricsRegistry& metrics);

}  // namespace dlt

#endif  // SRC_OBS_CHROME_TRACE_H_
