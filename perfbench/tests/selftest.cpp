// The benchmark's own tests: percentile selection, the geometric mean,
// failure accounting, and that tampered outputs trip every correctness
// check. Run with `python3 perfbench/run.py --selftest` (or ctest in the
// benchmark's build directory). Exit code 0 = all passed.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "etc/braun.hpp"
#include "harness.hpp"
#include "heuristics/minmin.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the percentile code must sort
}

void percentiles_keep_ten_samples_beyond() {
  // 2000 samples: p99 is rank 1980, with 20 samples beyond it.
  Quantile q = tail_quantile(one_to(2000), 0.99);
  EXPECT(q.q == 0.99 && q.value == 1980.0 && q.beyond == 20);
  // 1000 samples: exactly 10 beyond rank 990 still allows p99.
  q = tail_quantile(one_to(1000), 0.99);
  EXPECT(q.value == 990.0 && q.beyond == 10 && q.q == 0.99);
  // 100 samples: p99 would leave 1 beyond; it drops to p90 (rank 90).
  q = tail_quantile(one_to(100), 0.99);
  EXPECT(q.value == 90.0 && q.beyond == 10 && std::abs(q.q - 0.90) < 1e-12);
  // Any size: never fewer than ten beyond once a rank qualifies.
  for (std::size_t n = 11; n < 400; n += 7) {
    q = tail_quantile(one_to(n), 0.99);
    EXPECT(q.beyond >= kTailSamples && q.n == n);
  }
  // Ten or fewer samples: no rank qualifies.
  q = tail_quantile(one_to(10), 0.99);
  EXPECT(q.beyond == 0 && q.value == 10.0);
  EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void histogram_keeps_ten_samples_beyond() {
  const auto close = [](double a, double b) {
    return std::abs(a - b) <= 2e-3 * b;  // one 0.14% bucket
  };
  LatencyHist h;
  for (double v : one_to(100)) h.add(v);
  Quantile q = h.quantile(0.99);
  EXPECT(q.beyond == 10 && close(q.value, 90.0));
  LatencyHist big;
  for (double v : one_to(2000)) big.add(v * 0.01);
  q = big.quantile(0.99);
  EXPECT(q.q == 0.99 && q.beyond == 20 && close(q.value, 19.80));
  EXPECT(close(big.quantile(0.5).value, 10.0));

  // Five 1-second slices of 1000 samples each; throughput is the median
  // slice rate, latency the median over groups of >= kGroupSamples.
  std::vector<Slice> slices(5);
  for (std::size_t k = 0; k < slices.size(); ++k) {
    for (int i = 0; i < 1000; ++i) slices[k].latency.add(1.0 + k);
    slices[k].work = 100.0 * (k + 1);
    slices[k].seconds = 1.0;
  }
  slices[4].work = 1e6;  // one stalled-then-burst slice cannot move it
  const WindowFigures f = summarize(slices);
  EXPECT(f.throughput == 300.0);
  EXPECT(f.samples == 5000 && f.groups >= 2 && f.groups <= kMaxGroups);
  EXPECT(close(f.p50_ms, 3.0));
}

void geometric_mean() {
  EXPECT(std::abs(geomean({1.0, 4.0}) - 2.0) < 1e-12);
  EXPECT(std::abs(geomean({0.5, 2.0, 1.0}) - 1.0) < 1e-12);
  EXPECT(std::abs(geomean({0.9, 0.9, 0.9}) - 0.9) < 1e-12);
  // Not the arithmetic mean: {0.25, 1} -> 0.5, not 0.625.
  EXPECT(std::abs(geomean({0.25, 1.0}) - 0.5) < 1e-12);
}

void failed_frac_counts_every_non_done_outcome() {
  Tally t;
  for (int i = 0; i < 6; ++i) t.record(Outcome::kDone);
  t.record(Outcome::kRefused);
  t.record(Outcome::kViolation);
  EXPECT(t.attempted() == 8 && t.failed() == 2);
  EXPECT(std::abs(t.failed_frac() - 0.25) < 1e-12);
  t.record(Outcome::kFailed);
  t.record(Outcome::kCancelled);
  t.record(Outcome::kWrong);
  EXPECT(t.failed() == 5 && t.count(Outcome::kRefused) == 1);
  Tally other;
  other.record(Outcome::kRefused);
  t.merge(other);
  EXPECT(t.attempted() == 12 && t.failed() == 6 &&
         t.count(Outcome::kRefused) == 2);
}

void tampered_schedules_fail_the_checks() {
  pacga::etc::GenSpec spec;
  spec.tasks = 64;
  spec.machines = 8;
  spec.seed = 3;
  const pacga::etc::EtcMatrix m = pacga::etc::generate(spec);
  const pacga::sched::Schedule mm = pacga::heur::min_min(m);
  std::vector<pacga::sched::MachineId> a(mm.assignment().begin(),
                                         mm.assignment().end());
  EXPECT(check_schedule(m, a, mm.makespan()).empty());
  // Wrong makespan.
  EXPECT(!check_schedule(m, a, mm.makespan() * 0.99).empty());
  // Out-of-range machine id.
  auto bad = a;
  bad[5] = 8;
  EXPECT(!check_schedule(m, bad, mm.makespan()).empty());
  // Missing task.
  bad = a;
  bad.pop_back();
  EXPECT(!check_schedule(m, bad, mm.makespan()).empty());
  // A reschedule worse than its seed.
  EXPECT(check_not_worse(100.0, 100.0).empty());
  EXPECT(!check_not_worse(100.5, 100.0).empty());
  // Repeats of the same (instance, seed, policy) must agree exactly.
  RepeatCheck repeats;
  EXPECT(repeats.check({1, 7, 0}, 50.0).empty());
  EXPECT(repeats.check({1, 7, 0}, 50.0).empty());
  EXPECT(repeats.check({1, 7, 1}, 49.0).empty());  // other policy: own key
  EXPECT(!repeats.check({1, 7, 0}, 50.000001).empty());
}

void tampered_transcripts_fail_the_checks() {
  const std::string ok =
      "RESULT id=2 status=done makespan=1234.5678 policy=minmin cache_hit=1 "
      "warm_started=0 deadline_missed=0 generations=0 evaluations=0 "
      "wait_ms=0.01 solve_ms=0.002";
  TranscriptCheck t;
  bool refused = false;
  EXPECT(t.on_admission("JOB 1", refused).empty() && !refused);
  EXPECT(t.on_admission("ERR BUSY queue full retry_ms=3", refused).empty() &&
         refused);
  // Out-of-order id: the next admitted job must be 2.
  EXPECT(!t.on_admission("JOB 3", refused).empty());
  EXPECT(t.on_admission("JOB 2", refused).empty());
  EXPECT(t.admitted() == 2);
  ResultLine parsed;
  EXPECT(t.on_result(ok, 2, "1234.5678", &parsed).empty());
  EXPECT(parsed.cache_hit && parsed.wait_ms == 0.01 && parsed.solve_ms == 0.002);
  // WAIT answered by another id.
  EXPECT(!t.on_result(ok, 1, "1234.5678").empty());
  // Wrong makespan at the printed precision.
  EXPECT(!t.on_result(ok, 2, "1234.568").empty());
  // Not done.
  std::string failed = ok;
  failed.replace(failed.find("done"), 4, "failed");
  EXPECT(!t.on_result(failed, 2, "1234.5678").empty());
  // Garbled.
  EXPECT(!t.on_result("ERR WAIT unknown job 2", 2, "1234.5678").empty());
  EXPECT(format_makespan(1234.56789012345) == "1234.56789");
}

void disabled_span_log_records_nothing() {
  SpanLog on(true);
  const std::int64_t root = on.add("job", 100, 200, 1);
  EXPECT(on.add("child", 110, 140, 1, root) == 1);
  EXPECT(on.spans().size() == 2 && on.spans()[1].parent == root);
  SpanLog off(false);
  EXPECT(off.open("x", 0) == -1 && off.spans().empty());
}

}  // namespace

int main() {
  percentiles_keep_ten_samples_beyond();
  histogram_keeps_ten_samples_beyond();
  geometric_mean();
  failed_frac_counts_every_non_done_outcome();
  tampered_schedules_fail_the_checks();
  tampered_transcripts_fail_the_checks();
  disabled_span_log_records_nothing();
  if (g_failures == 0) std::printf("perfbench selftest: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
