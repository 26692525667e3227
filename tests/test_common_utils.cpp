// Coverage for the small common utilities: file writing, OpenMP
// wrappers, wall timer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "common/csv_writer.hpp"
#include "common/omp_utils.hpp"
#include "common/timer.hpp"
#include "scoped_temp_dir.hpp"

namespace fastbns {
namespace {

TEST(CsvWriter, WritesFileAndCreatesDirectories) {
  const ScopedTempDir dir("fastbns_csv_test_");
  const std::string path = (dir.path() / "nested" / "out.csv").string();
  ASSERT_FALSE(std::filesystem::exists(dir.path() / "nested"));
  ASSERT_TRUE(write_text_file(path, "a,b\n1,2\n"));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
}

TEST(CsvWriter, ResultDirHonorsEnvironment) {
  setenv("FASTBNS_RESULT_DIR", "/tmp/fastbns_results_test", 1);
  EXPECT_EQ(bench_result_dir(), "/tmp/fastbns_results_test");
  unsetenv("FASTBNS_RESULT_DIR");
  EXPECT_EQ(bench_result_dir(), "bench_results");
}

TEST(OmpUtils, HardwareThreadsPositive) {
  EXPECT_GE(hardware_threads(), 1);
}

TEST(OmpUtils, ScopedNumThreadsSetsAndRestores) {
  const int before = hardware_threads();
  {
    const ScopedNumThreads guard(3);
    EXPECT_EQ(hardware_threads(), 3);
  }
  EXPECT_EQ(hardware_threads(), before);
}

TEST(OmpUtils, ScopedNumThreadsZeroKeepsDefault) {
  const int before = hardware_threads();
  {
    const ScopedNumThreads guard(0);
    EXPECT_EQ(hardware_threads(), before);
  }
  EXPECT_EQ(hardware_threads(), before);
}

TEST(OmpUtils, CurrentThreadIsZeroOutsideParallelRegion) {
  EXPECT_EQ(current_thread(), 0);
}

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double elapsed = timer.seconds();
  EXPECT_GE(elapsed, 0.015);
  EXPECT_LT(elapsed, 5.0);
  EXPECT_NEAR(timer.milliseconds(), timer.seconds() * 1000.0, 50.0);
}

TEST(WallTimer, ResetRestartsMeasurement) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  timer.reset();
  EXPECT_LT(timer.seconds(), 0.015);
}

}  // namespace
}  // namespace fastbns
