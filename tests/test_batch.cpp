#include "batch/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "reference_checks.hpp"

namespace pacga::batch {
namespace {

WorkloadSpec small_spec() {
  WorkloadSpec spec;
  spec.tasks = 60;
  spec.machines = 6;
  spec.arrival_rate = 5.0;
  spec.workload_hi = 100.0;
  spec.mips_lo = 1.0;
  spec.mips_hi = 4.0;
  spec.seed = 11;
  return spec;
}

TEST(Workload, RejectsDegenerateSpecsWithNamedErrors) {
  const auto message_of = [](WorkloadSpec spec) -> std::string {
    try {
      generate_workload(spec);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  WorkloadSpec spec = small_spec();

  spec.machines = 0;
  EXPECT_NE(message_of(spec).find("machines"), std::string::npos);
  spec = small_spec();
  spec.tasks = 0;
  EXPECT_NE(message_of(spec).find("tasks"), std::string::npos);
  spec = small_spec();
  spec.arrival_rate = 0.0;
  EXPECT_NE(message_of(spec).find("arrival_rate"), std::string::npos);
  spec.arrival_rate = -2.5;
  EXPECT_NE(message_of(spec).find("arrival_rate"), std::string::npos);
  spec.arrival_rate = std::numeric_limits<double>::infinity();
  EXPECT_NE(message_of(spec).find("arrival_rate"), std::string::npos);
  spec = small_spec();
  spec.workload_hi = spec.workload_lo - 1.0;  // inverted range
  EXPECT_NE(message_of(spec).find("workload_hi"), std::string::npos);
  spec = small_spec();
  spec.workload_lo = 0.0;
  EXPECT_NE(message_of(spec).find("workload_lo"), std::string::npos);
  spec = small_spec();
  spec.mips_hi = spec.mips_lo / 2.0;
  EXPECT_NE(message_of(spec).find("mips_hi"), std::string::npos);
  spec = small_spec();
  spec.inconsistency = -0.1;
  EXPECT_NE(message_of(spec).find("inconsistency"), std::string::npos);
  spec.inconsistency = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(message_of(spec).find("inconsistency"), std::string::npos);
}

TEST(Workload, ValidSpecsProduceFiniteArrivals) {
  const auto w = generate_workload(small_spec());
  for (const auto& t : w.tasks) {
    EXPECT_TRUE(std::isfinite(t.arrival));
    EXPECT_GT(t.workload, 0.0);
  }
}

TEST(Workload, FullBatchEtcAdapter) {
  WorkloadSpec spec = small_spec();
  const auto m = make_workload_etc(spec);
  EXPECT_EQ(m.tasks(), spec.tasks);
  EXPECT_EQ(m.machines(), spec.machines);
  for (std::size_t mm = 0; mm < m.machines(); ++mm) {
    EXPECT_EQ(m.ready(mm), 0.0);  // idle park
  }
  // Deterministic in the seed.
  EXPECT_EQ(m.fingerprint(), make_workload_etc(spec).fingerprint());
  spec.seed += 1;
  EXPECT_NE(m.fingerprint(), make_workload_etc(spec).fingerprint());
}

TEST(Workload, GeneratesSortedArrivals) {
  const auto w = generate_workload(small_spec());
  ASSERT_EQ(w.tasks.size(), 60u);
  ASSERT_EQ(w.machines.size(), 6u);
  for (std::size_t i = 1; i < w.tasks.size(); ++i) {
    EXPECT_GE(w.tasks[i].arrival, w.tasks[i - 1].arrival);
  }
  for (const auto& t : w.tasks) {
    EXPECT_GT(t.workload, 0.0);
    EXPECT_LE(t.workload, 100.0);
  }
  for (const auto& m : w.machines) {
    EXPECT_GE(m.mips, 1.0);
    EXPECT_LE(m.mips, 4.0);
  }
}

TEST(Workload, DeterministicInSeed) {
  const auto a = generate_workload(small_spec());
  const auto b = generate_workload(small_spec());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.tasks[i].arrival, b.tasks[i].arrival);
    EXPECT_DOUBLE_EQ(a.tasks[i].workload, b.tasks[i].workload);
  }
}

TEST(Workload, ArrivalRateControlsDensity) {
  auto slow = small_spec();
  slow.arrival_rate = 1.0;
  auto fast = small_spec();
  fast.arrival_rate = 100.0;
  EXPECT_GT(generate_workload(slow).tasks.back().arrival,
            generate_workload(fast).tasks.back().arrival);
}

TEST(Workload, RejectsBadSpecs) {
  auto s = small_spec();
  s.tasks = 0;
  EXPECT_THROW(generate_workload(s), std::invalid_argument);
  s = small_spec();
  s.arrival_rate = 0.0;
  EXPECT_THROW(generate_workload(s), std::invalid_argument);
  s = small_spec();
  s.mips_lo = -1.0;
  EXPECT_THROW(generate_workload(s), std::invalid_argument);
}

TEST(BatchEtc, MatchesWorkloadOverMips) {
  auto spec = small_spec();
  spec.inconsistency = 0.0;  // exact ratio, no noise
  const auto w = generate_workload(spec);
  const auto etc = make_workload_etc(spec);
  ASSERT_EQ(etc.tasks(), w.tasks.size());
  ASSERT_EQ(etc.machines(), w.machines.size());
  for (std::size_t t = 0; t < etc.tasks(); ++t) {
    for (std::size_t m = 0; m < etc.machines(); ++m) {
      EXPECT_EQ(etc(t, m), w.tasks[t].workload / w.machines[m].mips);
    }
  }
}

TEST(BatchEtc, ZeroNoiseGivesConsistentMatrix) {
  auto spec = small_spec();
  spec.inconsistency = 0.0;
  EXPECT_TRUE(test_support::is_consistent(make_workload_etc(spec)));
}

}  // namespace
}  // namespace pacga::batch
