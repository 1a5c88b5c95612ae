#include "service/exposition.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace pacga::service {

std::string format_metric(double value, int precision) {
  if (!std::isfinite(value)) return "-";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

namespace {

void counter(std::ostream& out, const char* name, std::uint64_t v,
             const char* help) {
  out << "# HELP pacga_" << name << ' ' << help << '\n';
  out << "# TYPE pacga_" << name << " counter\n";
  out << "pacga_" << name << ' ' << v << '\n';
}

void summary(std::ostream& out, const char* name,
             const obs::HistogramSnapshot& h, const char* help) {
  out << "# HELP pacga_" << name << ' ' << help << '\n';
  out << "# TYPE pacga_" << name << " summary\n";
  static constexpr double kQuantiles[] = {0.5, 0.9, 0.99, 0.999};
  static constexpr const char* kLabels[] = {"0.5", "0.9", "0.99", "0.999"};
  for (std::size_t i = 0; i < 4; ++i) {
    const double ns = h.quantile_ns(kQuantiles[i]);
    out << "pacga_" << name << "{quantile=\"" << kLabels[i] << "\"} ";
    if (std::isfinite(ns)) {
      out << ns / 1e9 << '\n';  // seconds, the Prometheus base unit
    } else {
      out << "NaN\n";  // empty distribution: Prometheus' spelling
    }
  }
  out << "pacga_" << name << "_count " << h.count() << '\n';
}

}  // namespace

void write_prometheus(std::ostream& out,
                      const ServiceMetrics::Snapshot& s) {
  counter(out, "jobs_submitted_total", s.submitted, "Jobs admitted");
  counter(out, "jobs_completed_total", s.completed, "Jobs finished kDone");
  counter(out, "jobs_cancelled_total", s.cancelled, "Jobs cancelled");
  counter(out, "jobs_failed_total", s.failed, "Jobs whose solver threw");
  counter(out, "jobs_rejected_total", s.rejected,
          "try_submit refusals (queue full)");
  counter(out, "reschedules_total", s.reschedules,
          "Warm reschedule admissions");
  counter(out, "cache_hits_total", s.cache_hits, "Solution cache hits");
  counter(out, "admission_hits_total", s.admission_hits,
          "Cache hits answered at admission, never queued");
  counter(out, "deadline_misses_total", s.deadline_misses,
          "Completions past their deadline");
  counter(out, "arena_builds_total", s.arena_builds,
          "Warm-arena cold rebuilds");
  counter(out, "retries_total", s.retries,
          "Failed attempts re-queued with backoff");
  counter(out, "quarantined_total", s.quarantined,
          "Jobs terminally failed after exhausting max_retries");
  counter(out, "stalled_total", s.stalled,
          "Jobs the watchdog declared stalled");
  counter(out, "worker_restarts_total", s.worker_restarts,
          "Workers respawned by the watchdog");
  counter(out, "shed_total", s.shed,
          "Admissions refused at the shed watermark");

  out << "# HELP pacga_worker_completed_total Jobs served per worker\n";
  out << "# TYPE pacga_worker_completed_total counter\n";
  for (std::size_t w = 0; w < s.worker_completed.size(); ++w) {
    out << "pacga_worker_completed_total{worker=\"" << w << "\"} "
        << s.worker_completed[w] << '\n';
  }

  summary(out, "queue_wait_seconds", s.queue_wait_hist,
          "Submit to pickup latency");
  summary(out, "solve_seconds", s.solve_hist, "Worker solve latency");
  summary(out, "e2e_seconds", s.e2e_hist, "Submit to terminal latency");

  out << "# HELP pacga_uptime_seconds Seconds since service start\n";
  out << "# TYPE pacga_uptime_seconds gauge\n";
  out << "pacga_uptime_seconds " << s.elapsed_seconds << '\n';
  out << "# EOF\n";
}

}  // namespace pacga::service
