// Text exposition of service metrics — the formatting shared by the
// daemon's STATS (key=value) and METRICS (Prometheus) verbs, kept out of
// the example binary so tests can pin it.
//
// Two formats:
//   * format_metric — one scalar for STATS fields: fixed-point, and `-`
//     for NaN/inf (an empty histogram's min/max; a bare "nan" in a
//     key=value line parses as a float in some consumers and poisons
//     dashboards in others).
//   * write_prometheus — the Prometheus text format (# TYPE'd counters,
//     gauges, and summary quantiles from the latency histograms),
//     terminated by `# EOF` so a pipe client knows the multi-line
//     response is complete.
#pragma once

#include <iosfwd>
#include <string>

#include "service/metrics.hpp"

namespace pacga::service {

/// Fixed-point decimal with `precision` digits; `-` when the value is NaN
/// or infinite (empty-distribution min/max/quantiles).
std::string format_metric(double value, int precision = 3);

/// Prometheus text exposition of a metrics snapshot: pacga_-prefixed
/// counters, worker/shard state, and queue_wait / solve / e2e latency
/// summaries (p50/p90/p99/p99.9 in seconds, from the log-bucketed
/// histograms; omitted when the histograms are empty). Ends with `# EOF`.
void write_prometheus(std::ostream& out, const ServiceMetrics::Snapshot& s);

}  // namespace pacga::service
