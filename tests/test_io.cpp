#include "etc/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "etc/braun.hpp"
#include "reference_checks.hpp"

namespace pacga::etc {
namespace {

EtcMatrix sample_matrix() {
  GenSpec spec;
  spec.tasks = 8;
  spec.machines = 3;
  spec.seed = 5;
  return generate(spec);
}

TEST(BraunIo, StreamRoundTrip) {
  const auto m = sample_matrix();
  std::stringstream buf(test_support::braun_text(m, /*header=*/true));
  const auto back = read_braun(buf);
  ASSERT_EQ(back.tasks(), m.tasks());
  ASSERT_EQ(back.machines(), m.machines());
  for (std::size_t t = 0; t < m.tasks(); ++t) {
    for (std::size_t mm = 0; mm < m.machines(); ++mm) {
      EXPECT_DOUBLE_EQ(back(t, mm), m(t, mm));
    }
  }
}

TEST(BraunIo, HeaderlessReadWithExplicitDims) {
  const auto m = sample_matrix();
  std::stringstream buf(test_support::braun_text(m, /*header=*/false));
  const auto back = read_braun(buf, m.tasks(), m.machines());
  EXPECT_DOUBLE_EQ(back(3, 1), m(3, 1));
}

TEST(BraunIo, FileRoundTrip) {
  const auto m = sample_matrix();
  const auto path =
      (std::filesystem::temp_directory_path() / "pacga_io_test.etc").string();
  std::ofstream(path) << test_support::braun_text(m, /*header=*/true);
  const auto back = read_braun_file(path);
  EXPECT_DOUBLE_EQ(back(7, 2), m(7, 2));
  std::remove(path.c_str());
}

TEST(BraunIo, MissingHeaderThrows) {
  std::stringstream buf("");
  EXPECT_THROW(read_braun(buf), std::runtime_error);
}

TEST(BraunIo, TruncatedDataThrows) {
  std::stringstream buf("4 4\n1.0\n2.0\n");
  EXPECT_THROW(read_braun(buf), std::runtime_error);
}

TEST(BraunIo, MissingFileThrows) {
  EXPECT_THROW(read_braun_file("/nonexistent/path.etc"), std::runtime_error);
}

}  // namespace
}  // namespace pacga::etc
