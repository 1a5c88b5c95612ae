// Observability-layer tests:
//
//  * histogram geometry — values below 32 bucket EXACTLY, values above
//    report within 1/32 of the true magnitude, the top bucket saturates;
//  * quantiles — NaN on empty, exact on point masses, clamped q;
//  * merge — the merge of N single-writer histograms is BIT-EQUAL to one
//    serial histogram fed the same samples (the snapshot() contract);
//  * trace ring — FIFO below capacity, wrap drops the OLDEST records and
//    keeps the newest, and a reader racing the writer never sees a torn
//    record (run under TSan in CI: the ring is relaxed atomics + one
//    release publish, so any locking bug is a data-race report).
#include "obs/histogram.hpp"
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

namespace pacga::obs {
namespace {

// --- histogram geometry -----------------------------------------------------

TEST(HistGeometry, ExactBelowSubBuckets) {
  for (std::uint64_t v = 0; v < kHistSubBuckets; ++v) {
    EXPECT_EQ(hist_index_of(v), v);
    EXPECT_EQ(hist_value_at(v), v);
  }
}

TEST(HistGeometry, RelativeErrorBoundedAbove) {
  // The reported value (the bucket's upper edge) is >= the sample and
  // within 1/32 of it, across the whole dynamic range.
  for (std::uint64_t v : {32ull, 33ull, 63ull, 64ull, 100ull, 999ull,
                          1'000'000ull, 123'456'789ull, 987'654'321'000ull}) {
    const std::size_t idx = hist_index_of(v);
    const std::uint64_t reported = hist_value_at(idx);
    EXPECT_GE(reported, v) << v;
    EXPECT_LE(static_cast<double>(reported - v), static_cast<double>(v) / 32.0)
        << v;
  }
}

TEST(HistGeometry, IndexIsMonotone) {
  std::size_t prev = 0;
  for (std::uint64_t v = 0; v < 100'000; v += 7) {
    const std::size_t idx = hist_index_of(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(HistGeometry, Saturates) {
  const std::uint64_t huge = 1ull << (kHistMaxExponent + 3);
  EXPECT_EQ(hist_index_of(huge), kHistBuckets - 1);
  EXPECT_EQ(hist_index_of(~0ull), kHistBuckets - 1);
}

// --- quantiles --------------------------------------------------------------

TEST(HistQuantile, EmptyIsNaN) {
  LatencyHistogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(std::isnan(s.quantile_ns(0.5)));
  EXPECT_TRUE(std::isnan(s.quantile_ms(0.99)));
  EXPECT_TRUE(std::isnan(s.min_ms()));
  EXPECT_EQ(s.mean_ms(), 0.0);
}

TEST(HistQuantile, PointMassAndEdges) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record_ns(17);  // exact bucket
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count(), 100u);
  EXPECT_EQ(s.quantile_ns(0.0), 17.0);
  EXPECT_EQ(s.quantile_ns(0.5), 17.0);
  EXPECT_EQ(s.quantile_ns(1.0), 17.0);
  EXPECT_EQ(s.quantile_ns(-3.0), 17.0);  // q clamps
  EXPECT_EQ(s.quantile_ns(7.0), 17.0);
}

TEST(HistQuantile, SplitsMedian) {
  LatencyHistogram h;
  for (int i = 0; i < 50; ++i) h.record_ns(10);
  for (int i = 0; i < 50; ++i) h.record_ns(20);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.quantile_ns(0.25), 10.0);
  EXPECT_EQ(s.quantile_ns(0.50), 10.0);  // ceil(0.5 * 100) = 50th sample
  EXPECT_EQ(s.quantile_ns(0.51), 20.0);
  EXPECT_EQ(s.quantile_ns(0.99), 20.0);
}

TEST(HistQuantile, RecordSecondsClampsGarbage) {
  LatencyHistogram h;
  h.record_seconds(-1.0);  // negative clamps to 0
  h.record_seconds(std::nan(""));
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count(), 2u);
  EXPECT_EQ(s.quantile_ns(1.0), 0.0);
}

// --- merge ------------------------------------------------------------------

TEST(HistMerge, BitEqualToSerial) {
  // The same sample stream split round-robin across 4 single-writer
  // histograms and merged must give the IDENTICAL buckets, sum, min and
  // max as one histogram fed everything serially.
  constexpr std::size_t kWorkers = 4;
  LatencyHistogram serial;
  LatencyHistogram sharded[kWorkers];
  std::uint64_t v = 1;
  for (std::size_t i = 0; i < 10'000; ++i) {
    v = v * 2862933555777941757ull + 3037000493ull;  // LCG spread
    const std::uint64_t sample = v >> (v % 40);      // cover the range
    serial.record_ns(sample);
    sharded[i % kWorkers].record_ns(sample);
  }
  HistogramSnapshot merged;
  for (const LatencyHistogram& h : sharded) merged.merge(h.snapshot());
  const HistogramSnapshot s = serial.snapshot();
  EXPECT_EQ(merged.counts(), s.counts());
  EXPECT_EQ(merged.count(), s.count());
  EXPECT_EQ(merged.sum_ns(), s.sum_ns());
  EXPECT_EQ(merged.min_ns(), s.min_ns());
  EXPECT_EQ(merged.max_ns(), s.max_ns());
}

// --- trace ring -------------------------------------------------------------

SpanEvent make_event(std::uint64_t i) {
  // Every field derives from i, so a reader can prove a record untorn.
  SpanEvent e;
  e.job_id = i;
  e.ts_ns = i * 3 + 1;
  e.dur_ns = i * 5 + 2;
  e.worker = static_cast<std::uint32_t>(i % 7);
  e.kind = static_cast<SpanKind>(i % kSpanKinds);
  e.a = i ^ 0xabcdef;
  e.b = ~i;
  return e;
}

void expect_consistent(const SpanEvent& e) {
  const std::uint64_t i = e.job_id;
  EXPECT_EQ(e.ts_ns, i * 3 + 1);
  EXPECT_EQ(e.dur_ns, i * 5 + 2);
  EXPECT_EQ(e.worker, static_cast<std::uint32_t>(i % 7));
  EXPECT_EQ(e.kind, static_cast<SpanKind>(i % kSpanKinds));
  EXPECT_EQ(e.a, i ^ 0xabcdef);
  EXPECT_EQ(e.b, ~i);
}

TEST(TraceRing, FifoBelowCapacity) {
  TraceRing ring(64);
  EXPECT_EQ(ring.capacity(), 64u);
  for (std::uint64_t i = 0; i < 10; ++i) ring.push(make_event(i));
  const std::vector<SpanEvent> got = ring.snapshot();
  ASSERT_EQ(got.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(got[i].job_id, i);
    expect_consistent(got[i]);
  }
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  TraceRing ring(33);
  EXPECT_EQ(ring.capacity(), 64u);
}

TEST(TraceRing, WrapDropsOldestKeepsNewest) {
  TraceRing ring(16);
  const std::uint64_t total = 16 * 3 + 5;
  for (std::uint64_t i = 0; i < total; ++i) ring.push(make_event(i));
  EXPECT_EQ(ring.pushed(), total);
  // Once wrapped, a snapshot yields capacity - 1 records: the oldest slot
  // in the window is the one a (potentially in-flight) next push would be
  // overwriting, so the reader conservatively drops it too.
  const std::vector<SpanEvent> got = ring.snapshot();
  ASSERT_EQ(got.size(), 15u);
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].job_id, total - 15 + k);
    expect_consistent(got[k]);
  }
}

TEST(TraceRing, ZeroCapacityDisables) {
  TraceRing ring(0);
  EXPECT_EQ(ring.capacity(), 0u);
  ring.push(make_event(1));
  EXPECT_TRUE(ring.snapshot().empty());
  EXPECT_EQ(ring.pushed(), 0u);
}

TEST(TraceRing, ConcurrentReaderNeverSeesTornRecord) {
  // One writer streams self-consistent records through a small ring (to
  // force constant wrapping) while a reader snapshots as fast as it can.
  // Every surviving record must be internally consistent (untorn) and in
  // strictly increasing order (drop-oldest keeps a contiguous suffix).
  TraceRing ring(32);
  constexpr std::uint64_t kTotal = 200'000;
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (std::uint64_t i = 0; i < kTotal; ++i) ring.push(make_event(i));
    done.store(true, std::memory_order_release);
  });

  // do-while: on a 1-core box the writer can finish before this thread is
  // ever scheduled — still validate at least one (then quiescent) snapshot.
  std::uint64_t snapshots = 0, records = 0;
  do {
    const std::vector<SpanEvent> got = ring.snapshot();
    ++snapshots;
    records += got.size();
    std::uint64_t prev = 0;
    bool first = true;
    for (const SpanEvent& e : got) {
      expect_consistent(e);
      if (!first) {
        EXPECT_EQ(e.job_id, prev + 1);  // contiguous suffix
      }
      prev = e.job_id;
      first = false;
    }
  } while (!done.load(std::memory_order_acquire));
  writer.join();
  const std::vector<SpanEvent> final_snap = ring.snapshot();
  ASSERT_EQ(final_snap.size(), 31u);  // capacity - 1 once wrapped
  EXPECT_EQ(final_snap.back().job_id, kTotal - 1);
  EXPECT_GT(snapshots, 0u);
  (void)records;
}

TEST(Histogram, ConcurrentSnapshotNeverTears) {
  // Snapshot counts are monotone under a racing writer: a later snapshot
  // can only see MORE samples, and never more than were written.
  LatencyHistogram h;
  constexpr std::uint64_t kTotal = 200'000;
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (std::uint64_t i = 0; i < kTotal; ++i) h.record_ns(i % 4096);
    done.store(true, std::memory_order_release);
  });

  std::uint64_t prev_count = 0;
  while (!done.load(std::memory_order_acquire)) {
    const std::uint64_t c = h.snapshot().count();
    EXPECT_GE(c, prev_count);
    EXPECT_LE(c, kTotal);
    prev_count = c;
  }
  writer.join();
  EXPECT_EQ(h.snapshot().count(), kTotal);
}

// --- collector / tracer / export -------------------------------------------

TEST(TraceCollector, MergedSnapshotSortsAndFiltersByJob) {
  TraceCollector collector(2, 64);
  ASSERT_TRUE(collector.enabled());
  WorkerTracer t0(&collector, 0), t1(&collector, 1);
  t0.span(SpanKind::kServe, /*job=*/1, 100, 200);
  t1.span(SpanKind::kServe, /*job=*/2, 50, 80);
  t0.instant(SpanKind::kCompleted, /*job=*/1);

  const std::vector<SpanEvent> all = collector.snapshot();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_LE(all[0].ts_ns, all[1].ts_ns);  // sorted by ts
  EXPECT_LE(all[1].ts_ns, all[2].ts_ns);

  const std::vector<SpanEvent> job1 = collector.job_spans(1);
  ASSERT_EQ(job1.size(), 2u);
  EXPECT_EQ(job1[0].kind, SpanKind::kServe);
  EXPECT_EQ(job1[1].kind, SpanKind::kCompleted);
  EXPECT_TRUE(collector.job_spans(99).empty());
}

TEST(TraceCollector, DisabledCollectorIsInert) {
  TraceCollector collector(2, 0);
  EXPECT_FALSE(collector.enabled());
  WorkerTracer t(&collector, 0);
  EXPECT_FALSE(t.enabled());
  t.span(SpanKind::kServe, 1, 0, 10);
  t.instant(SpanKind::kCompleted, 1);
  EXPECT_TRUE(collector.snapshot().empty());
}

TEST(WorkerTracer, NullCollectorIsSafe) {
  WorkerTracer t;  // default: no collector
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.now_ns(), 0u);
  t.span(SpanKind::kServe, 1, 0, 10);
  t.instant(SpanKind::kGeneration, 1, 4, 0);
  WorkerTracer t2(nullptr, 3);
  EXPECT_FALSE(t2.enabled());
  t2.span(SpanKind::kServe, 1, 0, 10);
}

TEST(TraceExport, ChromeJsonShapeAndTimeline) {
  TraceCollector collector(1, 64);
  WorkerTracer t(&collector, 0);
  t.span(SpanKind::kQueueWait, 1, 0, 1'000'000, /*shard=*/3, /*stolen=*/0);
  t.span(SpanKind::kServe, 1, 1'000'000, 5'000'000, 0, 2);
  t.instant(SpanKind::kCompleted, 1);

  std::ostringstream out;
  collector.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);

  const std::string line = format_job_timeline(collector.job_spans(1));
  EXPECT_NE(line.find("queue_wait@0.000+1.000"), std::string::npos);
  EXPECT_NE(line.find("serve@1.000+4.000"), std::string::npos);
  EXPECT_NE(line.find("completed@"), std::string::npos);
}

TEST(TraceExport, SubmissionLaneIsItsOwnChromeProcess) {
  TraceCollector collector(2, 64);
  EXPECT_EQ(collector.workers(), 2u);
  ASSERT_EQ(collector.submission_lane(), 2u);
  WorkerTracer worker(&collector, 1);
  WorkerTracer admission(&collector, collector.submission_lane());
  worker.span(SpanKind::kServe, 1, 0, 1'000);
  admission.span(SpanKind::kCacheProbe, 2, 2'000, 3'000, 0, 1);
  admission.instant(SpanKind::kCompleted, 2);

  const std::vector<SpanEvent> hit = collector.job_spans(2);
  ASSERT_EQ(hit.size(), 2u);
  EXPECT_EQ(hit[0].worker, collector.submission_lane());

  std::ostringstream out;
  collector.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"pid\":3,\"tid\":0,\"name\":\"thread_name\","
                      "\"args\":{\"name\":\"admission\"}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"cache_probe\",\"ph\":\"X\",\"pid\":3,"
                      "\"tid\":0,"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"serve\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,"),
            std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"worker 2\""), std::string::npos)
      << "the submission ring is no worker lane";
}

TEST(SpanKindNames, StableAndClassified) {
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    const char* name = to_string(static_cast<SpanKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
  EXPECT_STREQ(to_string(SpanKind::kQueueWait), "queue_wait");
  EXPECT_STREQ(to_string(SpanKind::kWarmCga), "warm_cga");
  EXPECT_TRUE(span_has_duration(SpanKind::kServe));
  EXPECT_FALSE(span_has_duration(SpanKind::kGeneration));
  EXPECT_FALSE(span_has_duration(SpanKind::kCompleted));
}

}  // namespace
}  // namespace pacga::obs
