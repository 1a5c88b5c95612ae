#include "support/failpoints.hpp"

#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

namespace pacga::support {

namespace {

// >0 while any ScopedWedgeSuspend is alive. Read inside wedge wait
// predicates; bumped under no particular lock — which is why
// Failpoint::notify() must pass through each site's mutex before
// notifying (see the comment there), or the wakeup can race a waiter
// into a lost-notification park.
std::atomic<int> g_wedge_suspend{0};

}  // namespace

bool wedges_suspended() noexcept {
  return g_wedge_suspend.load(std::memory_order_relaxed) > 0;
}

// --- Failpoint --------------------------------------------------------------

Failpoint::Failpoint(std::string name) : name_(std::move(name)) {}

bool Failpoint::should_trigger_locked() {
  switch (trigger_) {
    case Trigger::kOff:
      return false;
    case Trigger::kOnce:
    case Trigger::kTimes:
      if (remaining_ == 0) return false;
      remaining_ -= 1;
      if (remaining_ == 0) armed_.store(false, std::memory_order_relaxed);
      return true;
    case Trigger::kEvery:
      return param_ != 0 && hits_ % param_ == 0;
    case Trigger::kAfter:
      return hits_ > param_;
  }
  return false;
}

void Failpoint::fire() {
  Action action;
  double delay_ms;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    hits_ += 1;
    if (!should_trigger_locked()) return;
    action = action_;
    delay_ms = delay_ms_;
    if (action == Action::kWedge) {
      if (wedges_suspended()) return;  // drain mode: wedges pass through
      const std::uint64_t epoch = epoch_;
      wedged_ += 1;
      cv_.wait(lock,
               [&] { return epoch_ != epoch || wedges_suspended(); });
      wedged_ -= 1;
      return;
    }
  }
  // Throw / sleep outside the lock: a long delay must not block
  // configure() or other sites' hits on this failpoint.
  if (action == Action::kDelay) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        delay_ms));
    return;
  }
  throw FailpointError(name_);
}

void Failpoint::configure(const std::string& spec) {
  // Parse into locals first so a grammar error leaves the site untouched.
  Trigger trigger;
  Action action = Action::kThrow;
  std::uint64_t param = 0;
  double delay_ms = 0.0;

  const auto bad = [&]() -> std::runtime_error {
    return std::runtime_error("bad failpoint spec '" + spec +
                              "' (want off|once|every=N|after=N|times=K"
                              "[:throw|delay=MS|wedge])");
  };
  const auto parse_u64 = [&](const std::string& s) -> std::uint64_t {
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
      throw bad();
    return std::strtoull(s.c_str(), nullptr, 10);
  };

  const std::size_t colon = spec.find(':');
  const std::string trig = spec.substr(0, colon);
  if (trig == "off") {
    trigger = Trigger::kOff;
  } else if (trig == "once") {
    trigger = Trigger::kOnce;
  } else if (trig.rfind("every=", 0) == 0) {
    trigger = Trigger::kEvery;
    param = parse_u64(trig.substr(6));
    if (param == 0) throw bad();
  } else if (trig.rfind("after=", 0) == 0) {
    trigger = Trigger::kAfter;
    param = parse_u64(trig.substr(6));
  } else if (trig.rfind("times=", 0) == 0) {
    trigger = Trigger::kTimes;
    param = parse_u64(trig.substr(6));
    if (param == 0) throw bad();
  } else {
    throw bad();
  }

  if (colon != std::string::npos) {
    const std::string act = spec.substr(colon + 1);
    if (act == "throw") {
      action = Action::kThrow;
    } else if (act == "wedge") {
      action = Action::kWedge;
    } else if (act.rfind("delay=", 0) == 0) {
      action = Action::kDelay;
      delay_ms = static_cast<double>(parse_u64(act.substr(6)));
    } else {
      throw bad();
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    trigger_ = trigger;
    action_ = action;
    param_ = param;
    delay_ms_ = delay_ms;
    hits_ = 0;
    remaining_ = trigger == Trigger::kOnce   ? 1
                 : trigger == Trigger::kTimes ? param
                                              : 0;
    epoch_ += 1;  // releases any thread parked in a previous wedge
    armed_.store(trigger != Trigger::kOff, std::memory_order_relaxed);
  }
  cv_.notify_all();
}

void Failpoint::notify() {
  // Empty lock/unlock before notifying: the wedge predicate reads
  // g_wedge_suspend, an atomic flipped OUTSIDE mutex_ (by
  // ScopedWedgeSuspend). Without the lock, the flip + notify could land
  // entirely between a waiter's predicate check (suspend still 0, under
  // mutex_) and its block on the cv — the wakeup would be lost and
  // SolverPool::join() would hang on the parked worker forever.
  // Acquiring mutex_ here cannot complete until that waiter has released
  // it, i.e. until it is actually parked (or re-checking the predicate,
  // where the mutex ordering makes the new flag value visible).
  { std::lock_guard<std::mutex> lock(mutex_); }
  cv_.notify_all();
}

// --- FailpointRegistry ------------------------------------------------------

Failpoint& FailpointRegistry::site(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(name);
  if (it == points_.end())
    it = points_.emplace(name, std::make_unique<Failpoint>(name)).first;
  return *it->second;
}

void FailpointRegistry::configure(const std::string& name,
                                  const std::string& spec) {
  site(name).configure(spec);
}

void FailpointRegistry::configure_from_string(const std::string& entries) {
  std::size_t pos = 0;
  while (pos < entries.size()) {
    std::size_t end = entries.find(',', pos);
    if (end == std::string::npos) end = entries.size();
    const std::string entry = entries.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0)
      throw std::runtime_error("bad failpoint entry '" + entry +
                               "' (want name=spec)");
    configure(entry.substr(0, eq), entry.substr(eq + 1));
  }
}

void FailpointRegistry::notify_all() {
  std::vector<Failpoint*> points;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    points.reserve(points_.size());
    for (auto& [name, fp] : points_) points.push_back(fp.get());
  }
  for (Failpoint* fp : points) fp->notify();
}

FailpointRegistry& failpoints() {
  // The env list is applied exactly once, before the first site can
  // consult the registry; a bad PACGA_FAILPOINTS aborts startup loudly
  // rather than running a storm the operator didn't specify.
  static FailpointRegistry& registry = [] () -> FailpointRegistry& {
    static FailpointRegistry r;
    if (const char* env = std::getenv("PACGA_FAILPOINTS"))
      r.configure_from_string(env);
    return r;
  }();
  return registry;
}

// --- ScopedWedgeSuspend -----------------------------------------------------

ScopedWedgeSuspend::ScopedWedgeSuspend() {
  g_wedge_suspend.fetch_add(1, std::memory_order_relaxed);
  failpoints().notify_all();
}

ScopedWedgeSuspend::~ScopedWedgeSuspend() {
  g_wedge_suspend.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace pacga::support
