#include "common/csv.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/check.h"
#include "temp_path.h"

namespace prepare {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvTest : public ::testing::Test {
 protected:
  std::string path_ = test_util::unique_temp_path("csv_test_out.csv");
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter w(path_, {"a", "b"});
    w.row(std::vector<double>{1.0, 2.5});
    w.row(std::vector<std::string>{"x", "y"});
  }
  EXPECT_EQ(read_file(path_), "a,b\n1,2.5\nx,y\n");
}

TEST_F(CsvTest, RejectsWrongColumnCount) {
  CsvWriter w(path_, {"a", "b"});
  EXPECT_THROW(w.row(std::vector<double>{1.0}), CheckFailure);
  EXPECT_THROW(w.row(std::vector<std::string>{"x", "y", "z"}), CheckFailure);
}

TEST_F(CsvTest, RejectsEmptyHeader) {
  EXPECT_THROW(CsvWriter(path_, {}), CheckFailure);
}

TEST_F(CsvTest, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}),
               std::runtime_error);
}

TEST_F(CsvTest, CloseFlushesTheRows) {
  CsvWriter w(path_, {"a", "b"});
  w.row(std::vector<double>{1.0, 2.5});
  EXPECT_NO_THROW(w.close());
  EXPECT_EQ(read_file(path_), "a,b\n1,2.5\n");
}

TEST(CsvWriter, CloseThrowsWhenTheWriteFails) {
  // Every write to /dev/full fails with ENOSPC; the rows sit in the
  // stream's buffer until close() flushes them.
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "/dev/full is absent";
  CsvWriter w("/dev/full", {"a", "b"});
  w.row(std::vector<double>{1.0, 2.5});
  EXPECT_THROW(w.close(), std::runtime_error);
}

TEST(FormatNumber, DropsTrailingZeros) {
  EXPECT_EQ(format_number(120.0), "120");
  EXPECT_EQ(format_number(3.5), "3.5");
}

TEST(FormatNumber, SmallValues) { EXPECT_EQ(format_number(0.001), "0.001"); }

}  // namespace
}  // namespace prepare
