// Tests for RunningStats, CsvWriter, CliArgs, Stopwatch and logging.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/cli.hpp"
#include "src/common/csv.hpp"
#include "src/common/logging.hpp"
#include "src/common/running_stats.hpp"
#include "src/common/stopwatch.hpp"

namespace dqndock {
namespace {

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownSequence) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesCombined) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.37 - 3.0;
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(CsvWriterTest, WritesHeaderAndRows) {
  const auto path = std::filesystem::temp_directory_path() / "dqndock_test.csv";
  {
    CsvWriter csv(path.string(), {"a", "b"});
    csv.row({1.5, 2.5});
    csv.rowStrings({"x,y", "plain"});
    csv.flush();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "\"x,y\",plain");
  std::filesystem::remove(path);
}

TEST(CsvWriterTest, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv", {"a"}), std::runtime_error);
}

TEST(CliArgsTest, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--alpha=0.5", "--name=test"};
  CliArgs args(3, argv);
  EXPECT_DOUBLE_EQ(args.getDouble("alpha", 0), 0.5);
  EXPECT_EQ(args.getString("name", ""), "test");
}

TEST(CliArgsTest, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--count", "42"};
  CliArgs args(3, argv);
  EXPECT_EQ(args.getInt("count", 0), 42);
}

TEST(CliArgsTest, BareSwitchIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  CliArgs args(2, argv);
  EXPECT_TRUE(args.getBool("verbose", false));
  EXPECT_FALSE(args.getBool("quiet", false));
}

TEST(CliArgsTest, PositionalCollected) {
  const char* argv[] = {"prog", "input.pdb", "--x=1", "output.pdb"};
  CliArgs args(4, argv);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.pdb");
  EXPECT_EQ(args.positional()[1], "output.pdb");
}

TEST(CliArgsTest, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.getInt("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.getDouble("x", 1.5), 1.5);
  EXPECT_EQ(args.getString("s", "dflt"), "dflt");
}

TEST(CliArgsTest, MalformedNumericValuesThrowCliError) {
  // The satellite bug: "--layers 128,abc" used to reach std::stoul and
  // abort. Present-but-malformed now throws CliError (a catchable,
  // usage-printing path) instead of silently using the fallback.
  const char* argv[] = {"prog", "--count=12abc", "--rate=fast", "--port=70000"};
  CliArgs args(4, argv);
  EXPECT_THROW(args.getInt("count", 0), CliError);
  EXPECT_THROW(args.getDouble("rate", 0.0), CliError);
  EXPECT_THROW(args.getUint16("port", 0), CliError);  // out of [0, 65535]
  // Absent flags still take the fallback, no throw.
  EXPECT_EQ(args.getInt("absent", 3), 3);
}

TEST(CliArgsTest, CheckedParseHelpers) {
  EXPECT_EQ(tryParseLong("-42").value(), -42);
  EXPECT_EQ(tryParseLong(" 42 "), std::nullopt);      // whole-token strict
  EXPECT_EQ(tryParseLong("42x"), std::nullopt);
  EXPECT_EQ(tryParseLong(""), std::nullopt);
  EXPECT_EQ(tryParseLong("999999999999999999999"), std::nullopt);  // overflow
  EXPECT_EQ(tryParseUnsigned("7").value(), 7ul);
  EXPECT_EQ(tryParseUnsigned("-7"), std::nullopt);    // negatives rejected
  EXPECT_DOUBLE_EQ(tryParseDouble("2.5e-3").value(), 2.5e-3);
  EXPECT_EQ(tryParseDouble("2.5.3"), std::nullopt);
}

TEST(CliArgsTest, SizeListParsing) {
  const auto sizes = tryParseSizeList("128,64,32");
  ASSERT_TRUE(sizes.has_value());
  EXPECT_EQ(*sizes, (std::vector<std::size_t>{128, 64, 32}));
  EXPECT_EQ(tryParseSizeList("128,abc"), std::nullopt);  // a bad --hidden once crashed a server
  EXPECT_EQ(tryParseSizeList("128,-4"), std::nullopt);
  EXPECT_EQ(tryParseSizeList("0"), std::nullopt);        // zero-width layer
  EXPECT_THROW(parseSizeList("128,abc", "hidden"), CliError);
  EXPECT_EQ(parseSizeList("16,8", "hidden"), (std::vector<std::size_t>{16, 8}));
}

// Streaming this type records whether operator<< ever ran.
struct FormatProbe {
  bool* formatted;
};
std::ostream& operator<<(std::ostream& os, const FormatProbe& p) {
  *p.formatted = true;
  return os << "probe";
}

TEST(LoggingTest, DisabledLevelSkipsFormatting) {
  const LogLevel saved = logLevel();
  setLogLevel(LogLevel::kWarn);
  bool formatted = false;
  logDebug() << FormatProbe{&formatted};
  logInfo() << FormatProbe{&formatted};
  EXPECT_FALSE(formatted);
  setLogLevel(saved);
}

TEST(LoggingTest, EnabledLevelFormats) {
  const LogLevel saved = logLevel();
  setLogLevel(LogLevel::kOff);  // destructor still must not print
  bool formatted = false;
  {
    detail::LogLine line(LogLevel::kError);
    // kError < kOff: gated at construction.
    line << FormatProbe{&formatted};
  }
  EXPECT_FALSE(formatted);
  setLogLevel(LogLevel::kDebug);
  bool formattedNow = false;
  logDebug() << FormatProbe{&formattedNow};
  EXPECT_TRUE(formattedNow);
  setLogLevel(saved);
}

TEST(StopwatchTest, MeasuresNonNegativeMonotonicTime) {
  Stopwatch sw;
  const double t1 = sw.seconds();
  const double t2 = sw.seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  sw.reset();
  EXPECT_LT(sw.seconds(), 1.0);
  EXPECT_NEAR(sw.millis(), sw.seconds() * 1000.0, 1.0);
}

}  // namespace
}  // namespace dqndock
