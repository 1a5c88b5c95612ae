#include "etc/etc_matrix.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "etc/braun.hpp"
#include "reference_checks.hpp"
#include "support/rng.hpp"

namespace pacga::etc {
namespace {

EtcMatrix small() {
  // 3 tasks x 2 machines, task-major.
  return EtcMatrix(3, 2, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
}

/// Both stored copies hold the same bits: element access, the task-major
/// row and the machine-major column agree on every entry.
void expect_layouts_agree(const EtcMatrix& m) {
  for (std::size_t t = 0; t < m.tasks(); ++t) {
    for (std::size_t k = 0; k < m.machines(); ++k) {
      ASSERT_EQ(m(t, k), m.of_task(t)[k]) << "task " << t << " machine " << k;
      ASSERT_EQ(m(t, k), m.on_machine(k)[t])
          << "task " << t << " machine " << k;
    }
  }
}

TEST(EtcMatrix, Dimensions) {
  const auto m = small();
  EXPECT_EQ(m.tasks(), 3u);
  EXPECT_EQ(m.machines(), 2u);
}

TEST(EtcMatrix, ElementAccessMatchesTaskMajorInput) {
  const auto m = small();
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(EtcMatrix, TransposedLayoutAgrees) {
  GenSpec spec;
  spec.tasks = 96;
  spec.machines = 12;
  spec.consistency = Consistency::kInconsistent;
  spec.seed = 17;
  EtcMatrix m = generate(spec);
  expect_layouts_agree(m);
  // scale_machine writes both copies; they must stay equal after each call.
  support::Xoshiro256 rng(23);
  for (int event = 0; event < 20; ++event) {
    m.scale_machine(rng.index(m.machines()), rng.uniform(0.25, 4.0));
    SCOPED_TRACE(event);
    expect_layouts_agree(m);
  }
}

TEST(EtcMatrix, MachineRowIsContiguousSlice) {
  const auto m = small();
  const auto row = m.on_machine(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[0], 2.0);
  EXPECT_DOUBLE_EQ(row[1], 4.0);
  EXPECT_DOUBLE_EQ(row[2], 6.0);
}

TEST(EtcMatrix, TaskRowIsContiguousSlice) {
  const auto m = small();
  const auto row = m.of_task(1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_DOUBLE_EQ(row[0], 3.0);
  EXPECT_DOUBLE_EQ(row[1], 4.0);
}

TEST(EtcMatrix, DefaultReadyTimesAreZero) {
  const auto m = small();
  for (std::size_t mm = 0; mm < m.machines(); ++mm) {
    EXPECT_DOUBLE_EQ(m.ready(mm), 0.0);
  }
}

TEST(EtcMatrix, ExplicitReadyTimes) {
  EtcMatrix m(2, 2, {1, 2, 3, 4}, {10.0, 20.0});
  EXPECT_DOUBLE_EQ(m.ready(0), 10.0);
  EXPECT_DOUBLE_EQ(m.ready(1), 20.0);
}

TEST(EtcMatrix, MinMaxEtc) {
  const auto m = small();
  EXPECT_DOUBLE_EQ(m.min_etc(), 1.0);
  EXPECT_DOUBLE_EQ(m.max_etc(), 6.0);
}

TEST(EtcMatrix, RejectsBadInput) {
  EXPECT_THROW(EtcMatrix(0, 2, {}), std::invalid_argument);
  EXPECT_THROW(EtcMatrix(2, 2, {1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(EtcMatrix(2, 2, {1, 2, 3, -4}), std::invalid_argument);
  EXPECT_THROW(EtcMatrix(2, 2, {1, 2, 3, 0}), std::invalid_argument);
  EXPECT_THROW(EtcMatrix(2, 2, {1, 2, 3, 4}, {1.0}), std::invalid_argument);
}

// The column summaries of reference_checks.hpp, which the generator tests
// classify instances with, on hand-made matrices.
TEST(EtcReference, DominationAndConsistency) {
  using test_support::is_consistent;
  using test_support::machine_dominates;
  // Machine 0 dominates machine 1 row-wise.
  EtcMatrix consistent(3, 2, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(machine_dominates(consistent, 0, 1));
  EXPECT_FALSE(machine_dominates(consistent, 1, 0));
  EXPECT_TRUE(is_consistent(consistent));

  // Machine 0 faster for task 0, machine 1 faster for task 1.
  EtcMatrix inconsistent(2, 2, {1, 5, 5, 1});
  EXPECT_FALSE(machine_dominates(inconsistent, 0, 1));
  EXPECT_FALSE(machine_dominates(inconsistent, 1, 0));
  EXPECT_FALSE(is_consistent(inconsistent));
}

TEST(EtcReference, HeterogeneityOrdering) {
  // Wildly different task weights -> high task heterogeneity.
  EtcMatrix hetero(3, 2, {1, 1.1, 100, 110, 10000, 11000});
  EtcMatrix homo(3, 2, {1, 1.1, 1.01, 1.1, 0.99, 1.05});
  EXPECT_GT(test_support::task_heterogeneity(hetero),
            test_support::task_heterogeneity(homo));
}

TEST(EtcMatrix, RejectsOverflowingDimensions) {
  // tasks * machines wraps to 5 here; without the overflow guard the size
  // check would accept this 5-element data vector and the transpose loop
  // would write out of bounds.
  const std::size_t huge = std::numeric_limits<std::size_t>::max() / 3 + 2;
  EXPECT_THROW(EtcMatrix(huge, 3, {1.0, 1.0, 1.0, 1.0, 1.0}),
               std::invalid_argument);
}

TEST(EtcMatrix, FingerprintIsContentStable) {
  EtcMatrix a(2, 2, {1, 2, 3, 4});
  EtcMatrix b(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(EtcMatrix, FingerprintSeesValuesShapeAndReadyTimes) {
  EtcMatrix base(2, 2, {1, 2, 3, 4});
  EXPECT_NE(base.fingerprint(), EtcMatrix(2, 2, {1, 2, 3, 5}).fingerprint());
  // Same flat data, transposed shape.
  EXPECT_NE(base.fingerprint(), EtcMatrix(4, 1, {1, 2, 3, 4}).fingerprint());
  EXPECT_NE(base.fingerprint(), EtcMatrix(1, 4, {1, 2, 3, 4}).fingerprint());
  // Ready times are part of the instance (an explicit all-zero vector is
  // the same instance as the implicit default).
  EXPECT_EQ(base.fingerprint(),
            EtcMatrix(2, 2, {1, 2, 3, 4}, {0.0, 0.0}).fingerprint());
  EXPECT_NE(base.fingerprint(),
            EtcMatrix(2, 2, {1, 2, 3, 4}, {1.0, 0.0}).fingerprint());
}

TEST(EtcMatrix, ScaleMachineUpdatesBothLayoutsAndSummary) {
  auto m = small();
  const std::uint64_t fp = m.fingerprint();
  m.scale_machine(1, 10.0);
  // Column 1 scaled in BOTH layouts, column 0 untouched.
  EXPECT_DOUBLE_EQ(m(0, 1), 20.0);
  EXPECT_DOUBLE_EQ(m(2, 1), 60.0);
  EXPECT_DOUBLE_EQ(m.on_machine(1)[1], 40.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  expect_layouts_agree(m);
  // min/max and the content fingerprint track the mutation.
  EXPECT_DOUBLE_EQ(m.max_etc(), 60.0);
  EXPECT_DOUBLE_EQ(m.min_etc(), 1.0);
  EXPECT_NE(m.fingerprint(), fp);
  // The fingerprint is CONTENT-derived: an identical matrix built from
  // scratch agrees.
  EXPECT_EQ(m.fingerprint(),
            EtcMatrix(3, 2, {1.0, 20.0, 3.0, 40.0, 5.0, 60.0}).fingerprint());
}

TEST(EtcMatrix, IncrementalFingerprintMatchesFromScratchAfterEventSequences) {
  // scale_machine refingerprints incrementally (only the touched column is
  // rehashed); after ANY sequence of events the result must equal the
  // from-scratch fingerprint of an identical matrix — bit for bit, along
  // with the min/max summaries.
  support::Xoshiro256 rng(91);
  const std::size_t tasks = 17, machines = 5;
  std::vector<double> data(tasks * machines);
  for (auto& v : data) v = rng.uniform(0.5, 100.0);
  std::vector<double> ready(machines);
  for (auto& r : ready) r = rng.uniform(0.0, 10.0);
  EtcMatrix m(tasks, machines, data, ready);

  for (int event = 0; event < 50; ++event) {
    const std::size_t machine = rng.index(machines);
    const double factor = rng.uniform(0.25, 4.0);
    m.scale_machine(machine, factor);

    std::vector<double> flat;
    flat.reserve(tasks * machines);
    for (std::size_t t = 0; t < tasks; ++t) {
      const auto row = m.of_task(t);
      flat.insert(flat.end(), row.begin(), row.end());
    }
    const EtcMatrix fresh(tasks, machines, flat,
                          {ready.begin(), ready.end()});
    ASSERT_EQ(m.fingerprint(), fresh.fingerprint()) << "event " << event;
    ASSERT_EQ(m.min_etc(), fresh.min_etc()) << "event " << event;
    ASSERT_EQ(m.max_etc(), fresh.max_etc()) << "event " << event;
  }
}

TEST(EtcMatrix, ScaleMachineRejectsBadInputUnchanged) {
  auto m = small();
  const std::uint64_t fp = m.fingerprint();
  EXPECT_THROW(m.scale_machine(2, 2.0), std::invalid_argument);
  EXPECT_THROW(m.scale_machine(0, 0.0), std::invalid_argument);
  EXPECT_THROW(m.scale_machine(0, -1.5), std::invalid_argument);
  EXPECT_THROW(m.scale_machine(0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  // An overflow-to-inf scale must leave the matrix untouched.
  EXPECT_THROW(m.scale_machine(0, std::numeric_limits<double>::max()),
               std::invalid_argument);
  EXPECT_EQ(m.fingerprint(), fp);
}

}  // namespace
}  // namespace pacga::etc
