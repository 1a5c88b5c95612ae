// Workload-independent pieces of the benchmark: tail percentiles, the
// geometric mean, failure accounting, output correctness checks, the span
// log of the traced run, the host fingerprint and the result printer.
// Everything here is pure or single-threaded so tests/selftest.cpp can pin
// it without a running service.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "etc/etc_matrix.hpp"
#include "sched/schedule.hpp"

namespace perfbench {

// ---- statistics -----------------------------------------------------------

/// A percentile as reported: the value, the quantile actually used, the
/// sample count, and how many samples lie strictly beyond the reported rank.
struct Quantile {
  double value = 0.0;
  double q = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

/// Fewest samples a reported percentile must leave beyond its rank.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile at `want`, lowered when needed so that at least
/// kTailSamples samples rank beyond it. With n <= kTailSamples no rank
/// qualifies and the maximum is reported with q = 1 and beyond = 0.
Quantile tail_quantile(std::vector<double> sample, double want);

/// Middle value (mean of the two middle values for an even count); 0 when
/// empty. Unlike tail_quantile it needs no samples beyond the rank.
double median(std::vector<double> sample);

/// Geometric mean of strictly positive values (0 for an empty input).
double geomean(const std::vector<double>& values);

/// Fixed-memory latency distribution: log-linear buckets, 512 per octave
/// (0.14% wide) from about 1 ns to 17 min, so recording allocates nothing
/// and memory does not grow with the number of samples.
class LatencyHist {
 public:
  LatencyHist();
  void add(double ms);
  void merge(const LatencyHist& other);
  std::uint64_t count() const noexcept { return count_; }
  /// tail_quantile's rule (nearest rank, at least kTailSamples beyond) on
  /// the bucketed sample; the value is the bucket's geometric midpoint.
  Quantile quantile(double want) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// One stretch of a timed window: its latencies, the work it completed
/// (jobs or evaluations) and its length.
struct Slice {
  LatencyHist latency;
  double work = 0.0;
  double seconds = 0.0;
};

/// Throughput and latency of a window, each the median over its slices, so
/// a stall on a shared host moves one slice rather than the result.
struct WindowFigures {
  double throughput = 0.0;  ///< median of work / seconds over slices
  double p50_ms = 0.0;      ///< median over slice groups of the group p50
  double p99_ms = 0.0;      ///< same for the p99
  std::size_t groups = 0;   ///< latency groups used
  std::uint64_t samples = 0;
  double p99_q = 0.0;       ///< smallest quantile the p99 rule allowed
};

/// Fewest latency samples a group of consecutive slices must hold so its
/// p99 keeps kTailSamples beyond the rank.
inline constexpr std::uint64_t kGroupSamples = 1100;
/// Most latency groups a window is split into.
inline constexpr std::size_t kMaxGroups = 5;

/// Throughput is the median over slices; latencies merge consecutive slices
/// into at most kMaxGroups groups of at least kGroupSamples samples each
/// (one group when the window is smaller) and take the median over groups.
WindowFigures summarize(const std::vector<Slice>& slices);

// ---- failure accounting ---------------------------------------------------

/// How one attempted job (or instance solve) ended.
enum class Outcome {
  kDone,       ///< finished `done` and passed every check
  kFailed,     ///< the service reported `failed`
  kCancelled,  ///< the service reported `cancelled`
  kRefused,    ///< admission refused (ERR BUSY)
  kViolation,  ///< transcript violation (wrong id, missing or garbled line)
  kWrong,      ///< finished, but a correctness check failed
};

/// Counts attempts and non-done outcomes. failed() is the numerator of
/// failed_frac: every outcome but kDone counts.
class Tally {
 public:
  void record(Outcome o) {
    ++attempted_;
    if (o != Outcome::kDone) ++failed_;
    ++by_kind_[static_cast<int>(o)];
  }
  void merge(const Tally& other);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  std::uint64_t count(Outcome o) const noexcept {
    return by_kind_[static_cast<int>(o)];
  }
  double failed_frac() const noexcept {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t by_kind_[6] = {};
};

// ---- correctness checks ---------------------------------------------------
// Each returns "" when the check passes, else a one-line reason.

/// Relative tolerance for "recomputed makespan equals reported fitness":
/// engines keep completion times incrementally, so a from-scratch
/// recomputation may differ in the last bits (the tolerance of
/// Schedule::validate).
inline constexpr double kMakespanTolerance = 1e-6;

/// `assignment` has one in-range machine id per task of `etc`, and the
/// makespan recomputed from scratch equals `reported`.
std::string check_schedule(const pacga::etc::EtcMatrix& etc,
                           std::span<const pacga::sched::MachineId> assignment,
                           double reported);

/// `got` is no worse (not larger) than `seed`, within kMakespanTolerance.
std::string check_not_worse(double got, double seed);

/// Same-input repeats must agree: the first makespan seen for a key is the
/// reference, and every later one must equal it exactly.
class RepeatCheck {
 public:
  using Key = std::tuple<std::size_t, std::uint64_t, int>;  // instance, seed, policy
  std::string check(const Key& key, double makespan);

 private:
  std::map<Key, double> first_;
};

/// The protocol's rendering of a makespan (10 significant digits).
std::string format_makespan(double makespan);

/// Fields of a RESULT line the benchmark reads.
struct ResultLine {
  std::uint64_t id = 0;
  std::string status;
  std::string makespan;  ///< as printed
  bool cache_hit = false;
  double wait_ms = 0.0;
  double solve_ms = 0.0;
};

/// Parses "RESULT id=.. status=.. makespan=.. ... wait_ms=.. solve_ms=..";
/// nullopt when the line is not a well-formed RESULT line.
std::optional<ResultLine> parse_result_line(std::string_view line);

/// One connection's view of the protocol: session-local ids must come back
/// dense and in order, and each WAIT must answer its own id with `done`
/// and the expected makespan.
class TranscriptCheck {
 public:
  /// Checks a reply to the next admission request ("JOB <n>", n dense).
  /// An "ERR BUSY" reply is reported as a refusal through `refused`.
  std::string on_admission(std::string_view line, bool& refused);
  /// Checks the RESULT answering WAIT `local_id`.
  std::string on_result(std::string_view line, std::uint64_t local_id,
                        std::string_view expected_makespan,
                        ResultLine* parsed = nullptr);
  std::uint64_t admitted() const noexcept { return next_id_ - 1; }

 private:
  std::uint64_t next_id_ = 1;
};

// ---- tracing --------------------------------------------------------------

/// One span: a named interval, the span that caused it (-1 = root), and the
/// job or instance it belongs to.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t job = 0;
};

/// Nanoseconds on the steady clock (the span time base).
std::uint64_t now_ns() noexcept;

/// A single-writer, in-memory span log. Disabled logs record nothing, so
/// the untraced run pays one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const noexcept { return enabled_; }
  /// Opens a span; returns its index (-1 when disabled).
  std::int64_t open(const char* name, std::uint64_t job,
                    std::int64_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_ns(), 0, parent, job});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void close(std::int64_t index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }
  /// Records a finished span with explicit times.
  std::int64_t add(const char* name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::uint64_t job,
                   std::int64_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, start_ns, end_ns, parent, job});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Writes every span of `logs` as JSON lines (one object per span, with the
/// log index as "lane"). Returns false when the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

// ---- host and process -----------------------------------------------------

/// CPU model, nproc, active kernel tier, build type and compiler, as one
/// JSON object. Results from different fingerprints are never compared.
std::string host_fingerprint();

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

// ---- reporting ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints each metric as "name value unit" and then, as the last line, the
/// result object {"correct", "attempted", "failed", "metrics"}.
void print_result(std::FILE* out, const std::vector<Metric>& metrics,
                  const Tally& tally);

}  // namespace perfbench
