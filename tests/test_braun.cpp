#include "etc/braun.hpp"

#include <gtest/gtest.h>

#include "etc/suite.hpp"
#include "reference_checks.hpp"

namespace pacga::etc {
namespace {

TEST(ParseInstanceName, ReadsClassAndShape) {
  const auto parsed = parse_instance_name("u_s_lohi.3");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->consistency, Consistency::kSemiConsistent);
  EXPECT_EQ(parsed->task_het, Heterogeneity::kLow);
  EXPECT_EQ(parsed->machine_het, Heterogeneity::kHigh);
  EXPECT_EQ(parsed->tasks, 512u);
  EXPECT_EQ(parsed->machines, 16u);
}

TEST(ParseInstanceName, RejectsMalformed) {
  EXPECT_FALSE(parse_instance_name("").has_value());
  EXPECT_FALSE(parse_instance_name("u_x_hihi.0").has_value());
  EXPECT_FALSE(parse_instance_name("u_c_xxhi.0").has_value());
  EXPECT_FALSE(parse_instance_name("u_c_hixx.0").has_value());
  EXPECT_FALSE(parse_instance_name("u_c_hihi").has_value());
  EXPECT_FALSE(parse_instance_name("u_c_hihi.x").has_value());
  EXPECT_FALSE(parse_instance_name("v_c_hihi.0").has_value());
}

TEST(ParseInstanceName, SeedsDifferPerName) {
  const auto a = parse_instance_name("u_c_hihi.0");
  const auto b = parse_instance_name("u_c_hihi.1");
  ASSERT_TRUE(a && b);
  EXPECT_NE(a->seed, b->seed);
}

TEST(Generate, Deterministic) {
  GenSpec spec;
  spec.tasks = 32;
  spec.machines = 4;
  spec.seed = 7;
  const auto a = generate(spec);
  const auto b = generate(spec);
  for (std::size_t t = 0; t < spec.tasks; ++t) {
    for (std::size_t m = 0; m < spec.machines; ++m) {
      EXPECT_DOUBLE_EQ(a(t, m), b(t, m));
    }
  }
}

TEST(Generate, SeedChangesMatrix) {
  GenSpec spec;
  spec.tasks = 16;
  spec.machines = 4;
  spec.seed = 1;
  const auto a = generate(spec);
  spec.seed = 2;
  const auto b = generate(spec);
  bool any_diff = false;
  for (std::size_t t = 0; t < spec.tasks && !any_diff; ++t) {
    for (std::size_t m = 0; m < spec.machines; ++m) {
      if (a(t, m) != b(t, m)) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generate, ConsistentMatrixIsConsistent) {
  GenSpec spec;
  spec.tasks = 64;
  spec.machines = 8;
  spec.consistency = Consistency::kConsistent;
  spec.seed = 11;
  const auto m = generate(spec);
  EXPECT_TRUE(test_support::is_consistent(m));
  // Rows individually sorted: machine 0 fastest for every task.
  for (std::size_t t = 0; t < spec.tasks; ++t) {
    for (std::size_t k = 0; k + 1 < spec.machines; ++k) {
      EXPECT_LE(m(t, k), m(t, k + 1));
    }
  }
}

TEST(Generate, InconsistentMatrixIsInconsistent) {
  GenSpec spec;
  spec.tasks = 64;
  spec.machines = 8;
  spec.consistency = Consistency::kInconsistent;
  spec.seed = 13;
  EXPECT_FALSE(test_support::is_consistent(generate(spec)));
}

TEST(Generate, SemiConsistentHasConsistentSubmatrix) {
  GenSpec spec;
  spec.tasks = 64;
  spec.machines = 8;
  spec.consistency = Consistency::kSemiConsistent;
  spec.seed = 17;
  const auto m = generate(spec);
  // Even rows, even columns sorted ascending.
  for (std::size_t t = 0; t < spec.tasks; t += 2) {
    for (std::size_t c = 0; c + 2 < spec.machines; c += 2) {
      EXPECT_LE(m(t, c), m(t, c + 2)) << "row " << t << " col " << c;
    }
  }
  // The full matrix should still be inconsistent overall.
  EXPECT_FALSE(test_support::is_consistent(m));
}

TEST(Generate, RangesMatchHeterogeneityClass) {
  GenSpec spec;
  spec.tasks = 512;
  spec.machines = 16;
  spec.consistency = Consistency::kInconsistent;
  spec.task_het = Heterogeneity::kHigh;
  spec.machine_het = Heterogeneity::kHigh;
  spec.seed = 19;
  const auto hihi = generate(spec);
  // hi-hi: values in (1, 3000*1000); paper reports ~3e6 upper bounds.
  EXPECT_GT(hihi.min_etc(), 1.0);
  EXPECT_LT(hihi.max_etc(), 3.0e6);
  EXPECT_GT(hihi.max_etc(), 1.0e5);  // should actually reach large values

  spec.task_het = Heterogeneity::kLow;
  spec.machine_het = Heterogeneity::kLow;
  const auto lolo = generate(spec);
  // lo-lo: values in (1, 100*10); paper reports ~1e3 upper bounds.
  EXPECT_LT(lolo.max_etc(), 1000.0);
}

TEST(Generate, HeterogeneityStatisticOrdersClasses) {
  GenSpec hi;
  hi.tasks = 256;
  hi.machines = 16;
  hi.consistency = Consistency::kInconsistent;
  hi.task_het = Heterogeneity::kHigh;
  hi.seed = 23;
  GenSpec lo = hi;
  lo.task_het = Heterogeneity::kLow;
  EXPECT_GT(test_support::task_heterogeneity(generate(hi)),
            test_support::task_heterogeneity(generate(lo)));
}

TEST(GenerateCvb, MeanAndHeterogeneityControlled) {
  GenSpec spec;
  spec.method = GenMethod::kCvb;
  spec.tasks = 256;
  spec.machines = 16;
  spec.consistency = Consistency::kInconsistent;
  spec.cvb_mean_task = 500.0;
  spec.seed = 29;
  const auto hi = generate(spec);
  // Grand mean tracks mu_task.
  double sum = 0.0;
  for (std::size_t t = 0; t < hi.tasks(); ++t)
    for (std::size_t m = 0; m < hi.machines(); ++m) sum += hi(t, m);
  const double grand_mean =
      sum / static_cast<double>(hi.tasks() * hi.machines());
  EXPECT_NEAR(grand_mean, 500.0, 0.15 * 500.0);

  spec.task_het = Heterogeneity::kLow;
  spec.machine_het = Heterogeneity::kLow;
  const auto lo = generate(spec);
  EXPECT_GT(test_support::task_heterogeneity(hi),
            test_support::task_heterogeneity(lo));
  EXPECT_GT(test_support::machine_heterogeneity(hi),
            test_support::machine_heterogeneity(lo));
}

TEST(GenerateCvb, ConsistencyPostProcessingApplies) {
  GenSpec spec;
  spec.method = GenMethod::kCvb;
  spec.tasks = 64;
  spec.machines = 8;
  spec.consistency = Consistency::kConsistent;
  spec.seed = 31;
  EXPECT_TRUE(test_support::is_consistent(generate(spec)));
  spec.consistency = Consistency::kInconsistent;
  EXPECT_FALSE(test_support::is_consistent(generate(spec)));
}

TEST(GenerateCvb, Deterministic) {
  GenSpec spec;
  spec.method = GenMethod::kCvb;
  spec.tasks = 16;
  spec.machines = 4;
  spec.seed = 37;
  const auto a = generate(spec);
  const auto b = generate(spec);
  EXPECT_DOUBLE_EQ(a(7, 2), b(7, 2));
}

TEST(Generate, ReadyFractionPopulatesReadyTimes) {
  GenSpec spec;
  spec.tasks = 64;
  spec.machines = 8;
  spec.seed = 41;
  spec.ready_fraction = 0.5;
  const auto m = generate(spec);
  bool any_positive = false;
  for (std::size_t k = 0; k < m.machines(); ++k) {
    EXPECT_GE(m.ready(k), 0.0);
    any_positive |= m.ready(k) > 0.0;
  }
  EXPECT_TRUE(any_positive);
  // Zero fraction: all ready times are exactly zero.
  spec.ready_fraction = 0.0;
  const auto idle = generate(spec);
  for (std::size_t k = 0; k < idle.machines(); ++k) {
    EXPECT_DOUBLE_EQ(idle.ready(k), 0.0);
  }
}

TEST(Generate, RejectsBadCvbAndReadyParams) {
  GenSpec spec;
  spec.cvb_mean_task = 0.0;
  EXPECT_THROW(generate(spec), std::invalid_argument);
  spec = GenSpec{};
  spec.ready_fraction = -0.1;
  EXPECT_THROW(generate(spec), std::invalid_argument);
}

TEST(BraunSuite, HasTwelveCanonicalInstances) {
  const auto suite = braun_suite();
  ASSERT_EQ(suite.size(), 12u);
  EXPECT_EQ(suite[0].name, "u_c_hihi.0");
  EXPECT_EQ(suite[11].name, "u_i_lolo.0");
  for (const auto& inst : suite) {
    EXPECT_EQ(inst.spec.tasks, 512u);
    EXPECT_EQ(inst.spec.machines, 16u);
  }
}

TEST(BraunSuite, GenerateByNameMatchesSpec) {
  const auto m = generate_by_name("u_c_lolo.0");
  EXPECT_EQ(m.tasks(), 512u);
  EXPECT_EQ(m.machines(), 16u);
  EXPECT_TRUE(test_support::is_consistent(m));
  EXPECT_THROW(generate_by_name("bogus"), std::invalid_argument);
}

/// Property sweep: every suite instance satisfies its declared class.
class SuitePropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SuitePropertyTest, ClassPropertiesHold) {
  const std::string name = GetParam();
  const auto spec = parse_instance_name(name);
  ASSERT_TRUE(spec.has_value());
  const auto m = generate(*spec);
  EXPECT_EQ(m.tasks(), 512u);
  EXPECT_EQ(m.machines(), 16u);
  EXPECT_GT(m.min_etc(), 0.0);
  if (spec->consistency == Consistency::kConsistent) {
    EXPECT_TRUE(test_support::is_consistent(m)) << name;
  } else {
    EXPECT_FALSE(test_support::is_consistent(m)) << name;
  }
  const double bound = task_range(spec->task_het) * machine_range(spec->machine_het);
  EXPECT_LT(m.max_etc(), bound);
}

INSTANTIATE_TEST_SUITE_P(AllTwelve, SuitePropertyTest,
                         ::testing::ValuesIn(braun_suite_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '.') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace pacga::etc
