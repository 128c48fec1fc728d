#include "common/logging.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace prepare {
namespace {

/// Redirects the process-wide log sink to a capture buffer for one test
/// and restores level + sink afterwards (cases share the static
/// Logger, so leaking state would bleed between tests).
class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_level_ = Logger::level();
    Logger::set_sink(&capture_);
  }
  void TearDown() override {
    Logger::set_sink(nullptr);  // restores std::cerr
    Logger::set_level(saved_level_);
  }

  std::string captured() const { return capture_.str(); }

  std::ostringstream capture_;
  LogLevel saved_level_ = LogLevel::kWarn;
};

TEST_F(LoggingTest, RecordsAtOrAboveTheLevelAreWritten) {
  Logger::set_level(LogLevel::kInfo);
  PREPARE_INFO("test") << "visible " << 42;
  const std::string out = captured();
  EXPECT_NE(out.find("[info] test: visible 42"), std::string::npos) << out;
  EXPECT_EQ(out.back(), '\n');
}

TEST_F(LoggingTest, EnabledRecordIsExactlyOneLine) {
  Logger::set_level(LogLevel::kDebug);
  PREPARE_WARN("tag") << "a=" << 1.5 << ' ' << std::string("b");
  PREPARE_DEBUG("t2");
  EXPECT_EQ(captured(), "[warn] tag: a=1.5 b\n[debug] t2: \n");
}

TEST_F(LoggingTest, RecordsBelowTheLevelAreSuppressed) {
  Logger::set_level(LogLevel::kWarn);
  PREPARE_INFO("test") << "hidden";
  PREPARE_DEBUG("test") << "hidden too";
  EXPECT_TRUE(captured().empty()) << captured();
}

TEST_F(LoggingTest, OffSilencesEverything) {
  Logger::set_level(LogLevel::kOff);
  PREPARE_ERROR("test") << "hidden";
  EXPECT_TRUE(captured().empty());
}

TEST_F(LoggingTest, NullSinkFallsBackToCerr) {
  Logger::set_sink(nullptr);
  EXPECT_EQ(Logger::sink(), &std::cerr);
  Logger::set_sink(&capture_);
  EXPECT_EQ(Logger::sink(), &capture_);
}

TEST(ParseLogLevel, RecognizesNamesCaseInsensitively) {
  EXPECT_EQ(parse_log_level("debug", LogLevel::kOff), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO", LogLevel::kOff), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warn", LogLevel::kOff), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning", LogLevel::kOff), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error", LogLevel::kOff), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off", LogLevel::kDebug), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("none", LogLevel::kDebug), LogLevel::kOff);
}

TEST(ParseLogLevel, FallsBackOnNullOrUnknown) {
  EXPECT_EQ(parse_log_level(nullptr, LogLevel::kWarn), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("", LogLevel::kInfo), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("verbose", LogLevel::kError), LogLevel::kError);
}

}  // namespace
}  // namespace prepare
