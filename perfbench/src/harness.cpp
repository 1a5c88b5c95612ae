#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "support/kernels.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

Quantile tail_quantile(std::vector<double> sample, double want) {
  Quantile out;
  out.n = sample.size();
  if (sample.empty()) return out;
  std::sort(sample.begin(), sample.end());
  const std::size_t n = sample.size();
  if (n <= kTailSamples) {
    out.value = sample.back();
    out.q = 1.0;
    return out;
  }
  // Nearest rank: the k-th smallest (1-based) with k = ceil(q * n). At
  // least kTailSamples ranks must remain above k, so k <= n - kTailSamples.
  double q = std::clamp(want, 0.0, 1.0);
  std::size_t k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  k = std::max<std::size_t>(k, 1);
  if (k > n - kTailSamples) {
    k = n - kTailSamples;
    q = static_cast<double>(k) / static_cast<double>(n);
  }
  out.value = sample[k - 1];
  out.q = q;
  out.beyond = n - k;
  return out;
}

double median(std::vector<double> sample) {
  if (sample.empty()) return 0.0;
  const std::size_t mid = sample.size() / 2;
  std::nth_element(sample.begin(), sample.begin() + mid, sample.end());
  const double hi = sample[mid];
  if (sample.size() % 2 == 1) return hi;
  return (*std::max_element(sample.begin(), sample.begin() + mid) + hi) / 2.0;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

constexpr int kSubBuckets = 512;  // per octave
constexpr int kMinExponent = -20;  // 2^-20 ms ~ 1 ns
constexpr int kOctaves = 40;

}  // namespace

LatencyHist::LatencyHist()
    : buckets_(static_cast<std::size_t>(kOctaves) * kSubBuckets, 0) {}

void LatencyHist::add(double ms) {
  std::size_t index = 0;
  if (ms > 0.0) {
    int exponent = 0;
    const double mantissa = std::frexp(ms, &exponent);  // [0.5, 1)
    const int octave = std::clamp(exponent - 1 - kMinExponent, 0, kOctaves - 1);
    const int sub = std::clamp(
        static_cast<int>((mantissa - 0.5) * 2.0 * kSubBuckets), 0,
        kSubBuckets - 1);
    index = static_cast<std::size_t>(octave) * kSubBuckets +
            static_cast<std::size_t>(sub);
  }
  ++buckets_[index];
  ++count_;
}

void LatencyHist::merge(const LatencyHist& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

Quantile LatencyHist::quantile(double want) const {
  Quantile out;
  out.n = count_;
  if (count_ == 0) return out;
  const std::size_t n = count_;
  double q = std::clamp(want, 0.0, 1.0);
  std::size_t k = std::max<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1);
  if (n <= kTailSamples) {
    k = n;
    q = 1.0;
  } else if (k > n - kTailSamples) {
    k = n - kTailSamples;
    q = static_cast<double>(k) / static_cast<double>(n);
  }
  std::uint64_t seen = 0;
  std::size_t index = 0;
  for (; index < buckets_.size(); ++index) {
    seen += buckets_[index];
    if (seen >= k) break;
  }
  const int octave = static_cast<int>(index) / kSubBuckets;
  const int sub = static_cast<int>(index) % kSubBuckets;
  const double lo = std::ldexp(0.5 + sub / (2.0 * kSubBuckets),
                               octave + kMinExponent + 1);
  const double hi = std::ldexp(0.5 + (sub + 1) / (2.0 * kSubBuckets),
                               octave + kMinExponent + 1);
  out.value = std::sqrt(lo * hi);
  out.q = q;
  out.beyond = n - k;
  return out;
}

WindowFigures summarize(const std::vector<Slice>& slices) {
  WindowFigures out;
  std::vector<double> rates;
  for (const Slice& s : slices) {
    out.samples += s.latency.count();
    if (s.seconds > 0.0) rates.push_back(s.work / s.seconds);
  }
  out.throughput = median(rates);
  if (out.samples == 0) return out;
  const std::size_t groups = static_cast<std::size_t>(std::clamp<std::uint64_t>(
      out.samples / kGroupSamples, 1, kMaxGroups));
  const std::uint64_t per_group = out.samples / groups;
  std::vector<double> p50, p99;
  LatencyHist group;
  out.p99_q = 1.0;
  const auto close_group = [&] {
    p50.push_back(group.quantile(0.5).value);
    const Quantile tail = group.quantile(0.99);
    p99.push_back(tail.value);
    out.p99_q = std::min(out.p99_q, tail.q);
    group = LatencyHist();
  };
  for (const Slice& s : slices) {
    group.merge(s.latency);
    if (p50.size() + 1 < groups && group.count() >= per_group) close_group();
  }
  if (group.count() > 0) close_group();
  out.groups = p50.size();
  out.p50_ms = median(p50);
  out.p99_ms = median(p99);
  return out;
}

void Tally::merge(const Tally& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (int i = 0; i < 6; ++i) by_kind_[i] += other.by_kind_[i];
}

std::string check_schedule(const pacga::etc::EtcMatrix& etc,
                           std::span<const pacga::sched::MachineId> assignment,
                           double reported) {
  if (assignment.size() != etc.tasks())
    return "assignment has " + std::to_string(assignment.size()) +
           " entries for " + std::to_string(etc.tasks()) + " tasks";
  for (std::size_t t = 0; t < assignment.size(); ++t) {
    if (static_cast<std::size_t>(assignment[t]) >= etc.machines())
      return "task " + std::to_string(t) + " on machine " +
             std::to_string(assignment[t]) + " of " +
             std::to_string(etc.machines());
  }
  const pacga::sched::Schedule s(
      etc, {assignment.begin(), assignment.end()});
  const double recomputed = s.makespan();
  if (!(std::abs(recomputed - reported) <=
        kMakespanTolerance * std::max(1.0, std::abs(recomputed)))) {
    std::ostringstream out;
    out.precision(17);
    out << "reported makespan " << reported << " != recomputed " << recomputed;
    return out.str();
  }
  return "";
}

std::string check_not_worse(double got, double seed) {
  if (got <= seed * (1.0 + kMakespanTolerance)) return "";
  std::ostringstream out;
  out.precision(17);
  out << "makespan " << got << " worse than its seed " << seed;
  return out.str();
}

std::string RepeatCheck::check(const Key& key, double makespan) {
  const auto [it, fresh] = first_.emplace(key, makespan);
  if (fresh || it->second == makespan) return "";
  std::ostringstream out;
  out.precision(17);
  out << "repeat of instance " << std::get<0>(key) << " seed "
      << std::get<1>(key) << " returned " << makespan << ", first run "
      << it->second;
  return out.str();
}

std::string format_makespan(double makespan) {
  std::ostringstream out;
  out.precision(10);
  out << makespan;
  return out.str();
}

namespace {

/// Value of `key=` in a space-separated line, or an empty view.
std::string_view field(std::string_view line, std::string_view key) {
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t end = std::min(line.find(' ', pos), line.size());
    const std::string_view token = line.substr(pos, end - pos);
    if (token.size() > key.size() && token[key.size()] == '=' &&
        token.substr(0, key.size()) == key)
      return token.substr(key.size() + 1);
    pos = end + 1;
  }
  return {};
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

double parse_double(std::string_view s) {
  return s.empty() ? 0.0 : std::strtod(std::string(s).c_str(), nullptr);
}

}  // namespace

std::optional<ResultLine> parse_result_line(std::string_view line) {
  if (line.substr(0, 7) != "RESULT ") return std::nullopt;
  ResultLine r;
  if (!parse_u64(field(line, "id"), r.id)) return std::nullopt;
  r.status = std::string(field(line, "status"));
  r.makespan = std::string(field(line, "makespan"));
  if (r.status.empty() || r.makespan.empty()) return std::nullopt;
  r.cache_hit = field(line, "cache_hit") == "1";
  r.wait_ms = parse_double(field(line, "wait_ms"));
  r.solve_ms = parse_double(field(line, "solve_ms"));
  return r;
}

std::string TranscriptCheck::on_admission(std::string_view line,
                                          bool& refused) {
  refused = line.substr(0, 8) == "ERR BUSY";
  if (refused) return "";
  const std::string expected = "JOB " + std::to_string(next_id_);
  if (line != expected)
    return "expected '" + expected + "', got '" + std::string(line) + "'";
  ++next_id_;
  return "";
}

std::string TranscriptCheck::on_result(std::string_view line,
                                       std::uint64_t local_id,
                                       std::string_view expected_makespan,
                                       ResultLine* parsed) {
  const std::optional<ResultLine> r = parse_result_line(line);
  if (!r) return "malformed RESULT '" + std::string(line) + "'";
  if (parsed) *parsed = *r;
  if (r->id != local_id)
    return "WAIT " + std::to_string(local_id) + " answered id=" +
           std::to_string(r->id);
  if (r->status != "done") return "job " + std::to_string(local_id) +
                                  " ended " + r->status;
  if (r->makespan != expected_makespan)
    return "job " + std::to_string(local_id) + " makespan=" + r->makespan +
           ", expected " + std::string(expected_makespan);
  return "";
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t lane = 0; lane < logs.size(); ++lane) {
    for (const Span& s : logs[lane]->spans()) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"job\":" << s.job << ",\"lane\":" << lane << "}\n";
    }
  }
  out.flush();
  return out.good();
}

std::string host_fingerprint() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        cpu = line.substr(colon + 2);
      break;
    }
  }
  for (char& c : cpu) {
    if (c == '"' || c == '\\') c = ' ';
  }
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::ostringstream out;
  out << "{\"cpu\":\"" << cpu << "\",\"nproc\":"
      << std::thread::hardware_concurrency() << ",\"kernels\":\""
      << pacga::support::kernels::active_dispatch() << "\",\"build\":\""
      << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\"" << compiler << "\"}";
  return out.str();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_result(std::FILE* out, const std::vector<Metric>& metrics,
                  const Tally& tally) {
  for (const Metric& m : metrics)
    std::fprintf(out, "%-34s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  std::fprintf(out, "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": {",
               tally.failed() == 0 ? "true" : "false",
               static_cast<unsigned long long>(tally.attempted()),
               static_cast<unsigned long long>(tally.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i ? ", " : "", metrics[i].name.c_str(), v,
                 metrics[i].unit.c_str());
  }
  std::fprintf(out, "}}\n");
  std::fflush(out);
}

}  // namespace perfbench
