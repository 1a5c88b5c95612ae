#include "obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace pacga::obs {

const char* to_string(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kQueueWait: return "queue_wait";
    case SpanKind::kServe: return "serve";
    case SpanKind::kCacheProbe: return "cache_probe";
    case SpanKind::kArenaBuild: return "arena_build";
    case SpanKind::kHeuristic: return "heuristic";
    case SpanKind::kWarmCga: return "warm_cga";
    case SpanKind::kPaCga: return "pa_cga";
    case SpanKind::kGeneration: return "generation";
    case SpanKind::kCompleted: return "completed";
    case SpanKind::kCancelled: return "cancelled";
    case SpanKind::kFailed: return "failed";
  }
  return "?";
}

bool span_has_duration(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kGeneration:
    case SpanKind::kCompleted:
    case SpanKind::kCancelled:
    case SpanKind::kFailed:
      return false;
    default:
      return true;
  }
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t c = 1;
  while (c < n) c <<= 1;
  return c;
}

/// kind and worker share one word (kind in the low byte).
std::uint64_t pack_kind_worker(SpanKind k, std::uint32_t worker) noexcept {
  return (static_cast<std::uint64_t>(worker) << 8) |
         static_cast<std::uint64_t>(k);
}

}  // namespace

TraceRing::TraceRing(std::size_t capacity) {
  if (capacity == 0) return;
  const std::size_t cap = round_up_pow2(capacity);
  slots_ = std::make_unique<Slot[]>(cap);
  for (std::size_t s = 0; s < cap; ++s)
    for (std::size_t w = 0; w < kWords; ++w)
      slots_[s][w].store(0, std::memory_order_relaxed);
  mask_ = cap - 1;
}

void TraceRing::push(const SpanEvent& e) noexcept {
  if (!slots_) return;
  const std::uint64_t h = head_.load(std::memory_order_relaxed);
  Slot& s = slots_[static_cast<std::size_t>(h) & mask_];
  s[0].store(e.job_id, std::memory_order_relaxed);
  s[1].store(e.ts_ns, std::memory_order_relaxed);
  s[2].store(e.dur_ns, std::memory_order_relaxed);
  s[3].store(pack_kind_worker(e.kind, e.worker), std::memory_order_relaxed);
  s[4].store(e.a, std::memory_order_relaxed);
  s[5].store(e.b, std::memory_order_relaxed);
  // Publish AFTER the payload: a reader that sees head > h sees record h's
  // words written (release/acquire pairing with snapshot()).
  head_.store(h + 1, std::memory_order_release);
}

std::vector<SpanEvent> TraceRing::snapshot() const {
  std::vector<SpanEvent> out;
  if (!slots_) return out;
  const std::size_t cap = mask_ + 1;
  const std::uint64_t h1 = head_.load(std::memory_order_acquire);
  const std::uint64_t n = std::min<std::uint64_t>(h1, cap);
  const std::uint64_t first = h1 - n;
  out.reserve(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> logical;
  logical.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = first; i < h1; ++i) {
    const Slot& s = slots_[static_cast<std::size_t>(i) & mask_];
    SpanEvent e;
    e.job_id = s[0].load(std::memory_order_relaxed);
    e.ts_ns = s[1].load(std::memory_order_relaxed);
    e.dur_ns = s[2].load(std::memory_order_relaxed);
    const std::uint64_t kw = s[3].load(std::memory_order_relaxed);
    e.kind = static_cast<SpanKind>(kw & 0xff);
    e.worker = static_cast<std::uint32_t>(kw >> 8);
    e.a = s[4].load(std::memory_order_relaxed);
    e.b = s[5].load(std::memory_order_relaxed);
    out.push_back(e);
    logical.push_back(i);
  }
  // Drop anything the writer could have been overwriting during the copy:
  // while publishing record j it touches slot j & mask, which aliases
  // logical record j - capacity. With h2 = head after the copy, records at
  // logical index <= h2 - capacity may be torn — the writer was (or could
  // have been) inside them — so only the window (h2 - capacity, h1) is
  // certainly intact. Dropping is from the FRONT (oldest), matching the
  // ring's drop-oldest semantics.
  const std::uint64_t h2 = head_.load(std::memory_order_acquire);
  std::size_t keep_from = 0;
  while (keep_from < logical.size() && h2 >= cap &&
         logical[keep_from] <= h2 - cap) {
    ++keep_from;
  }
  if (keep_from > 0) out.erase(out.begin(), out.begin() + keep_from);
  return out;
}

// --- TraceCollector ---------------------------------------------------------

TraceCollector::TraceCollector(std::size_t workers, std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()) {
  rings_.reserve(workers + 1);
  for (std::size_t w = 0; w <= workers; ++w)
    rings_.push_back(std::make_unique<TraceRing>(capacity));
}

bool TraceCollector::enabled() const noexcept {
  return !rings_.empty() && rings_.front()->capacity() > 0;
}

std::uint64_t TraceCollector::now_ns() const noexcept {
  return to_ns(std::chrono::steady_clock::now());
}

std::uint64_t TraceCollector::to_ns(
    std::chrono::steady_clock::time_point t) const noexcept {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

std::vector<SpanEvent> TraceCollector::snapshot() const {
  std::vector<SpanEvent> all;
  for (const auto& r : rings_) {
    const std::vector<SpanEvent> s = r->snapshot();
    all.insert(all.end(), s.begin(), s.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     if (a.worker != b.worker) return a.worker < b.worker;
                     return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                   });
  return all;
}

std::vector<SpanEvent> TraceCollector::job_spans(std::uint64_t job_id) const {
  std::vector<SpanEvent> all = snapshot();
  all.erase(std::remove_if(all.begin(), all.end(),
                           [job_id](const SpanEvent& e) {
                             return e.job_id != job_id;
                           }),
            all.end());
  return all;
}

namespace {

/// Kind-specific argument names of the a/b payload (see SpanKind).
void write_args(std::ostream& out, const SpanEvent& e) {
  out << "\"job\":" << e.job_id;
  switch (e.kind) {
    case SpanKind::kQueueWait:
      out << ",\"shard\":" << e.a << ",\"stolen\":" << e.b;
      break;
    case SpanKind::kServe:
      out << ",\"status\":" << e.b;
      break;
    case SpanKind::kCacheProbe:
      out << ",\"hit\":" << e.b;
      break;
    case SpanKind::kArenaBuild:
      out << ",\"tasks\":" << e.a << ",\"machines\":" << e.b;
      break;
    case SpanKind::kWarmCga:
    case SpanKind::kPaCga:
      out << ",\"generations\":" << e.a;
      break;
    case SpanKind::kGeneration:
      out << ",\"generation\":" << e.a
          << ",\"fitness\":" << std::bit_cast<double>(e.b);
      break;
    case SpanKind::kCompleted:
      out << ",\"makespan\":" << std::bit_cast<double>(e.b);
      break;
    default:
      break;
  }
}

}  // namespace

void TraceCollector::write_chrome_trace(std::ostream& out) const {
  const std::vector<SpanEvent> spans = snapshot();
  out << "{\"traceEvents\":[\n";
  bool first = true;
  // Lane names: workers under pid 1, per-shard queue-wait lanes under
  // pid 2, the submission lane under pid 3 (its spans come from any
  // submitting thread and may overlap, so it is no worker lane).
  for (std::size_t w = 0; w < workers(); ++w) {
    out << (first ? "" : ",\n")
        << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << w
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"worker " << w
        << "\"}}";
    first = false;
  }
  out << (first ? "" : ",\n")
      << "{\"ph\":\"M\",\"pid\":3,\"tid\":0,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"admission\"}}";
  first = false;
  out.precision(3);
  out << std::fixed;
  for (const SpanEvent& e : spans) {
    const bool queue_lane = e.kind == SpanKind::kQueueWait;
    const bool admission = e.worker == submission_lane();
    const double ts_us = static_cast<double>(e.ts_ns) / 1e3;
    out << (first ? "" : ",\n") << "{\"name\":\"" << to_string(e.kind)
        << "\",\"ph\":\"" << (span_has_duration(e.kind) ? 'X' : 'i')
        << "\",\"pid\":" << (queue_lane ? 2 : admission ? 3 : 1)
        << ",\"tid\":"
        << (queue_lane ? e.a : admission ? 0 : e.worker)
        << ",\"ts\":" << ts_us;
    if (span_has_duration(e.kind)) {
      out << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1e3;
    } else {
      out << ",\"s\":\"t\"";
    }
    out << ",\"args\":{";
    write_args(out, e);
    out << "}}";
    first = false;
  }
  out << "\n]}\n";
}

std::string format_job_timeline(const std::vector<SpanEvent>& spans) {
  std::ostringstream out;
  out.precision(3);
  out << std::fixed;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanEvent& e = spans[i];
    if (i > 0) out << ' ';
    out << to_string(e.kind) << '@'
        << static_cast<double>(e.ts_ns) / 1e6;  // ms on the collector clock
    if (span_has_duration(e.kind))
      out << '+' << static_cast<double>(e.dur_ns) / 1e6;
  }
  return out.str();
}

}  // namespace pacga::obs
