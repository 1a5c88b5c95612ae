// Deterministic fault injection for the service stack.
//
// A failpoint is a named site in production code — `PACGA_FAILPOINT("x")` —
// that normally costs one relaxed atomic load and does nothing. Arming it
// (env var, test code, or the daemon FAILPOINT verb) makes the site
// misbehave on a counter-based deterministic schedule:
//
//   spec     := trigger [":" action]
//   trigger  := "off" | "once" | "every=N" | "after=N" | "times=K"
//   action   := "throw" | "delay=MS" | "wedge"        (default: throw)
//
//   off       never fires (disarms the site, releases wedged threads)
//   once      fires on the next hit only
//   every=N   fires on every Nth hit (N, 2N, 3N, ...)
//   after=N   fires on every hit past the Nth
//   times=K   fires on the next K hits, then disarms
//
//   throw     raises FailpointError from the site
//   delay=MS  sleeps MS milliseconds at the site
//   wedge     parks the calling thread until the site is reconfigured
//             (simulates a stuck solver; the service watchdog is what
//             gets tested against this)
//
// Hit counting restarts at every configure(), so a given spec fires at
// the same hit numbers on every run — storms are reproducible.
//
// Process-wide configuration comes from the PACGA_FAILPOINTS environment
// variable (comma-separated `name=spec` entries, applied on first
// registry use), e.g.:
//
//   PACGA_FAILPOINTS="solver.solve=every=3:throw,cache.lookup=once:wedge"
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace pacga::support {

/// Thrown by a site whose armed action is `throw`.
class FailpointError : public std::runtime_error {
 public:
  explicit FailpointError(const std::string& site)
      : std::runtime_error("failpoint " + site) {}
};

/// One named site. The disarmed fast path is a single relaxed atomic
/// load (`armed()`); everything else lives behind the slow-path mutex.
class Failpoint {
 public:
  explicit Failpoint(std::string name);

  Failpoint(const Failpoint&) = delete;
  Failpoint& operator=(const Failpoint&) = delete;

  /// Fast-path check, done inline at every site.
  bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Slow path: counts the hit, evaluates the trigger, performs the
  /// action. May throw FailpointError, sleep, or park the thread.
  void fire();

  /// Parses and installs `spec` (grammar above). Resets the hit counter,
  /// bumps the config epoch, and wakes any thread parked in `wedge`.
  /// Throws std::runtime_error on bad grammar.
  void configure(const std::string& spec);

  const std::string& name() const noexcept { return name_; }

  /// Wakes wedge waiters without changing the spec (used by the global
  /// wedge suspension, see ScopedWedgeSuspend).
  void notify();

 private:
  /// Test access to the wedge count (defined with the tests).
  friend struct FailpointTestPeer;

  enum class Trigger { kOff, kOnce, kEvery, kAfter, kTimes };
  enum class Action { kThrow, kDelay, kWedge };

  bool should_trigger_locked();

  const std::string name_;
  std::atomic<bool> armed_{false};

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  Trigger trigger_ = Trigger::kOff;
  Action action_ = Action::kThrow;
  std::uint64_t param_ = 0;     ///< N of every=/after=, K of times=
  double delay_ms_ = 0.0;       ///< MS of delay=
  std::uint64_t hits_ = 0;      ///< hits since last configure()
  std::uint64_t remaining_ = 0; ///< shots left (once / times=K)
  std::uint64_t epoch_ = 0;     ///< bumped by configure(); releases wedges
  std::size_t wedged_ = 0;      ///< threads parked in wedge right now
};

/// Process-wide name -> Failpoint map. Sites are created on first use
/// (by the macro or by configure()), never destroyed, so the references
/// the macro caches stay valid for the process lifetime.
class FailpointRegistry {
 public:
  /// Looks up (creating if needed) the site `name`.
  Failpoint& site(const std::string& name);

  /// Configures one site; throws std::runtime_error on bad grammar.
  void configure(const std::string& name, const std::string& spec);

  /// Applies a comma-separated `name=spec,name=spec` list (the
  /// PACGA_FAILPOINTS env format). Throws on the first bad entry.
  void configure_from_string(const std::string& entries);

 private:
  friend class ScopedWedgeSuspend;
  void notify_all();

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Failpoint>> points_;
};

/// The process-wide registry. First call applies PACGA_FAILPOINTS from
/// the environment, so env-armed sites are live before any site fires.
FailpointRegistry& failpoints();

/// True while any ScopedWedgeSuspend is alive: wedge actions become
/// no-ops and parked threads are released (they re-park only if the site
/// fires again after the suspension ends). Used by SolverPool::join() so
/// a shutdown can drain workers parked at a wedge site without touching
/// the configured specs.
bool wedges_suspended() noexcept;

class ScopedWedgeSuspend {
 public:
  ScopedWedgeSuspend();
  ~ScopedWedgeSuspend();
  ScopedWedgeSuspend(const ScopedWedgeSuspend&) = delete;
  ScopedWedgeSuspend& operator=(const ScopedWedgeSuspend&) = delete;
};

// The macro caches the site reference in a function-local static, so the
// registry lock is taken once per site, not once per hit. Names must be
// string literals: tools/check_docs_consistency.sh greps them and
// requires each to be documented in docs/ROBUSTNESS.md.
#define PACGA_FAILPOINT(name)                                         \
  do {                                                                \
    static ::pacga::support::Failpoint& pacga_fp_site_ =             \
        ::pacga::support::failpoints().site(name);                    \
    if (pacga_fp_site_.armed()) pacga_fp_site_.fire();                \
  } while (0)

}  // namespace pacga::support
