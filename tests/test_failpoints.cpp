// Failpoint registry unit tests: spec grammar, the counter-based trigger
// schedules, the three actions (throw / delay / wedge), reconfiguration
// semantics (hit counters reset, wedges release).
//
// The registry is process-global, so every test uses its own site names
// ("test.<case>.*") and disarms what it armed.
#include "support/failpoints.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "support/timer.hpp"

namespace pacga::support {

/// Reads the threads parked in a `wedge` action at one site.
struct FailpointTestPeer {
  static std::size_t wedged(const Failpoint& fp) {
    std::lock_guard<std::mutex> lock(fp.mutex_);
    return fp.wedged_;
  }
};

namespace {

std::size_t wedged(const char* site) {
  return FailpointTestPeer::wedged(failpoints().site(site));
}

/// fire() only runs when armed() — mirror the macro's gate.
int hit_site(const char* name, int hits) {
  Failpoint& fp = failpoints().site(name);
  int fired = 0;
  for (int i = 0; i < hits; ++i) {
    if (!fp.armed()) continue;
    try {
      fp.fire();
    } catch (const FailpointError&) {
      ++fired;
    }
  }
  return fired;
}

TEST(Failpoints, DisarmedSiteNeverFires) {
  Failpoint& fp = failpoints().site("test.disarmed");
  EXPECT_FALSE(fp.armed());
  EXPECT_EQ(hit_site("test.disarmed", 100), 0);
}

TEST(Failpoints, OnceFiresExactlyOnce) {
  failpoints().configure("test.once", "once");
  EXPECT_EQ(hit_site("test.once", 50), 1);
  EXPECT_FALSE(failpoints().site("test.once").armed()) << "once must disarm";
}

TEST(Failpoints, EveryNFiresOnMultiples) {
  failpoints().configure("test.every", "every=3:throw");
  // Hits 1..9: fires on 3, 6, 9.
  EXPECT_EQ(hit_site("test.every", 9), 3);
  failpoints().configure("test.every", "off");
}

TEST(Failpoints, AfterNFiresOnEveryLaterHit) {
  failpoints().configure("test.after", "after=4");
  // Hits 1..10: fires on 5..10.
  EXPECT_EQ(hit_site("test.after", 10), 6);
  failpoints().configure("test.after", "off");
}

TEST(Failpoints, TimesKFiresKThenDisarms) {
  failpoints().configure("test.times", "times=3");
  EXPECT_EQ(hit_site("test.times", 10), 3);
  EXPECT_FALSE(failpoints().site("test.times").armed());
}

TEST(Failpoints, ConfigureResetsHitCounting) {
  failpoints().configure("test.reset", "every=5");
  EXPECT_EQ(hit_site("test.reset", 4), 0);  // hits 1..4: no fire yet
  failpoints().configure("test.reset", "every=5");  // counter back to 0
  EXPECT_EQ(hit_site("test.reset", 4), 0);  // would have fired on old hit 5
  EXPECT_EQ(hit_site("test.reset", 1), 1);  // the NEW 5th hit fires
  failpoints().configure("test.reset", "off");
}

TEST(Failpoints, DelayActionSleeps) {
  failpoints().configure("test.delay", "once:delay=30");
  support::WallTimer t;
  EXPECT_EQ(hit_site("test.delay", 1), 0) << "delay must not throw";
  EXPECT_GE(t.elapsed_seconds() * 1e3, 25.0);
}

TEST(Failpoints, WedgeParksUntilReconfigured) {
  failpoints().configure("test.wedge", "once:wedge");
  std::atomic<bool> released{false};
  std::thread parked([&] {
    failpoints().site("test.wedge").fire();
    released.store(true);
  });
  // The thread must park (not return) while the spec stands.
  support::WallTimer t;
  while (wedged("test.wedge") == 0) {
    ASSERT_LT(t.elapsed_seconds(), 5.0) << "thread never reached the wedge";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(released.load());
  EXPECT_EQ(wedged("test.wedge"), 1u);
  failpoints().configure("test.wedge", "off");  // releases the parked thread
  parked.join();
  EXPECT_TRUE(released.load());
  EXPECT_EQ(wedged("test.wedge"), 0u);
}

TEST(Failpoints, ScopedWedgeSuspendReleasesAndNeutralizesWedges) {
  failpoints().configure("test.suspend", "every=1:wedge");
  std::atomic<bool> released{false};
  std::thread parked([&] {
    failpoints().site("test.suspend").fire();
    released.store(true);
  });
  support::WallTimer t;
  while (wedged("test.suspend") == 0) {
    ASSERT_LT(t.elapsed_seconds(), 5.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    ScopedWedgeSuspend suspend;
    parked.join();  // released without touching the spec
    EXPECT_TRUE(released.load());
    // While suspended, a fresh hit passes straight through.
    failpoints().site("test.suspend").fire();
  }
  failpoints().configure("test.suspend", "off");
}

TEST(Failpoints, WedgeSuspendWakeupIsNeverLost) {
  // Regression for a lost-wakeup race: ScopedWedgeSuspend flips an
  // atomic OUTSIDE the site mutex and then notifies. If the flip+notify
  // landed between a waiter's predicate check (suspend still 0, under
  // the mutex) and its park on the cv, the wakeup was lost and the
  // thread parked forever — SolverPool::join() hung on it at shutdown.
  // notify() now passes through the site mutex, which orders it after
  // the waiter's park. Iterate the handshake with NO wait for the park,
  // so the suspend races threads that are already parked, mid-predicate,
  // and not yet at the site; pre-fix this loop hung within a few dozen
  // iterations under load.
  for (int i = 0; i < 200; ++i) {
    failpoints().configure("test.suspend_race", "every=1:wedge");
    std::thread parked([] { failpoints().site("test.suspend_race").fire(); });
    ScopedWedgeSuspend suspend;
    parked.join();
  }
  failpoints().configure("test.suspend_race", "off");
}

TEST(Failpoints, BadSpecsThrowAndDoNotArm) {
  EXPECT_THROW(failpoints().configure("test.bad", "sometimes"),
               std::runtime_error);
  EXPECT_THROW(failpoints().configure("test.bad", "every=0"),
               std::runtime_error);
  EXPECT_THROW(failpoints().configure("test.bad", "once:explode"),
               std::runtime_error);
  EXPECT_THROW(failpoints().configure("test.bad", "once:delay=abc"),
               std::runtime_error);
  EXPECT_FALSE(failpoints().site("test.bad").armed());
}

TEST(Failpoints, ConfigureFromStringAppliesEveryEntry) {
  failpoints().configure_from_string(
      "test.multi.a=once,test.multi.b=every=2:throw");
  EXPECT_TRUE(failpoints().site("test.multi.a").armed());
  EXPECT_TRUE(failpoints().site("test.multi.b").armed());
  EXPECT_THROW(failpoints().configure_from_string("test.multi.c"),
               std::runtime_error);  // missing '=spec'
  failpoints().configure_from_string("test.multi.a=off,test.multi.b=off");
}

TEST(Failpoints, ErrorMessageNamesTheSite) {
  failpoints().configure("test.named", "once");
  try {
    failpoints().site("test.named").fire();
    FAIL() << "expected FailpointError";
  } catch (const FailpointError& e) {
    EXPECT_STREQ(e.what(), "failpoint test.named");
  }
}

TEST(Failpoints, MacroCompilesAndFires) {
  failpoints().configure("test.macro", "once");
  int fired = 0;
  try {
    PACGA_FAILPOINT("test.macro");
  } catch (const FailpointError&) {
    ++fired;
  }
  PACGA_FAILPOINT("test.macro");  // shot spent: must pass through
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace pacga::support
