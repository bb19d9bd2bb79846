// Tests for the trace CSV I/O, the flag parser, the JSON writer, and the
// stats helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>

#include "src/cache/trace_io.h"
#include "src/common/flags.h"
#include "src/common/json_writer.h"
#include "src/common/stats.h"

namespace palette {
namespace {

TEST(TraceIoTest, RoundTripThroughStreams) {
  const std::vector<CacheAccess> trace = {
      {"post/1", 512}, {"media/1/0/c3", 131072}, {"profile/9", 1024}};
  std::stringstream buffer;
  ASSERT_TRUE(WriteTraceCsv(trace, buffer));
  std::string error;
  const auto loaded = ReadTraceCsv(buffer, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ((*loaded)[i].key, trace[i].key);
    EXPECT_EQ((*loaded)[i].size, trace[i].size);
  }
}

TEST(TraceIoTest, AcceptsHeaderlessInput) {
  std::stringstream in("a,1\nb,2\n");
  const auto loaded = ReadTraceCsv(in);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2u);
}

TEST(TraceIoTest, SkipsBlankLines) {
  std::stringstream in("key,size\na,1\n\nb,2\n");
  const auto loaded = ReadTraceCsv(in);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2u);
}

TEST(TraceIoTest, RejectsMalformedSize) {
  std::stringstream in("a,notanumber\n");
  std::string error;
  EXPECT_FALSE(ReadTraceCsv(in, &error).has_value());
  EXPECT_NE(error.find("bad size"), std::string::npos);
}

TEST(TraceIoTest, RejectsMissingComma) {
  std::stringstream in("justakey\n");
  std::string error;
  EXPECT_FALSE(ReadTraceCsv(in, &error).has_value());
}

TEST(TraceIoTest, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "palette_trace_test.csv")
          .string();
  const std::vector<CacheAccess> trace = {{"x", 7}, {"y", 9}};
  ASSERT_TRUE(WriteTraceCsvFile(trace, path));
  const auto loaded = ReadTraceCsvFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2u);
  std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileReportsError) {
  std::string error;
  EXPECT_FALSE(
      ReadTraceCsvFile("/nonexistent/dir/trace.csv", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(FlagParserTest, EqualsForm) {
  const char* argv[] = {"tool", "--workers=8", "--policy=la"};
  const FlagParser flags(3, argv);
  EXPECT_EQ(flags.GetInt("workers", 0), 8);
  EXPECT_EQ(flags.GetString("policy", ""), "la");
}

TEST(FlagParserTest, SpaceForm) {
  const char* argv[] = {"tool", "--workers", "12", "--verbose"};
  const FlagParser flags(4, argv);
  EXPECT_EQ(flags.GetInt("workers", 0), 12);
  EXPECT_TRUE(flags.GetBool("verbose", false));
}

TEST(FlagParserTest, DefaultsWhenAbsentOrMalformed) {
  const char* argv[] = {"tool", "--count=abc"};
  const FlagParser flags(2, argv);
  EXPECT_EQ(flags.GetInt("count", 42), 42);
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 1.5), 1.5);
}

TEST(FlagParserTest, DoubleParsing) {
  const char* argv[] = {"tool", "--rate=60e6"};
  const FlagParser flags(2, argv);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0), 60e6);
}

TEST(FlagParserTest, PositionalArguments) {
  const char* argv[] = {"tool", "run", "--n=1", "extra"};
  const FlagParser flags(4, argv);
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"run", "extra"}));
}

TEST(FlagParserTest, BoolValues) {
  const char* argv[] = {"tool", "--a=true", "--b=1", "--c=yes", "--d=false"};
  const FlagParser flags(5, argv);
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_TRUE(flags.GetBool("b", false));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
}

TEST(FlagParserTest, UnqueriedFlagsDetected) {
  const char* argv[] = {"tool", "--used=1", "--typo=2"};
  const FlagParser flags(3, argv);
  flags.GetInt("used", 0);
  const auto unused = flags.UnqueriedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(FlagParserTest, DurationFlagConvertsLikeSimTimeAndRejectsBadValues) {
  const char* argv[] = {"tool",         "--lag_ms=2.5", "--inf_s=inf",
                        "--nan_ms=nan", "--neg_us=-1",  "--big_s=1e10"};
  const FlagParser flags(6, argv);
  SimTime value = SimTime::FromMillis(7);
  ASSERT_TRUE(DurationFlag(flags, "lag_ms", SimTime::FromMillis(1), &value));
  EXPECT_EQ(value.nanos(), SimTime::FromMillis(2.5).nanos());
  // An absent flag keeps the default already in `value`.
  ASSERT_TRUE(DurationFlag(flags, "gap_ms", SimTime::FromMillis(1), &value));
  EXPECT_EQ(value.nanos(), SimTime::FromMillis(2.5).nanos());
  // Infinite, NaN, negative and >= 2^63 ns values have no SimTime.
  for (const char* bad : {"inf_s", "nan_ms", "neg_us", "big_s"}) {
    SimTime untouched = SimTime::FromSeconds(1);
    EXPECT_FALSE(DurationFlag(flags, bad, SimTime::FromSeconds(1), &untouched))
        << bad;
    EXPECT_EQ(untouched.nanos(), SimTime::FromSeconds(1).nanos()) << bad;
  }
}

TEST(JsonWriterTest, EscapesQuotesAndBackslashes) {
  JsonWriter json;
  json.String("a\"b\\c");
  EXPECT_EQ(json.str(), "\"a\\\"b\\\\c\"");
}

TEST(JsonWriterTest, EscapesNamedControlCharacters) {
  JsonWriter json;
  json.String("a\nb\tc\rd");
  EXPECT_EQ(json.str(), "\"a\\nb\\tc\\rd\"");
}

TEST(JsonWriterTest, EscapesUnnamedControlCharactersAsUnicode) {
  JsonWriter json;
  json.String(std::string_view("\x01\x1f\x08", 3));
  EXPECT_EQ(json.str(), "\"\\u0001\\u001f\\u0008\"");
}

TEST(JsonWriterTest, EscapesControlCharactersInKeys) {
  JsonWriter json;
  json.BeginObject();
  json.Key("bad\x02key");
  json.Int(1);
  json.EndObject();
  EXPECT_EQ(json.str(), "{\"bad\\u0002key\":1}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter json;
  json.BeginArray();
  json.Double(std::numeric_limits<double>::quiet_NaN());
  json.Double(std::numeric_limits<double>::infinity());
  json.Double(-std::numeric_limits<double>::infinity());
  json.Double(1.5);
  json.EndArray();
  EXPECT_EQ(json.str(), "[null,null,null,1.5]");
}

TEST(JsonWriterTest, CommasBetweenObjectPairsAndArrayElements) {
  JsonWriter json;
  json.BeginObject();
  json.Key("a");
  json.Int(1);
  json.Key("b");
  json.BeginArray();
  json.UInt(2);
  json.Bool(true);
  json.EndArray();
  json.EndObject();
  EXPECT_EQ(json.str(), "{\"a\":1,\"b\":[2,true]}");
}

TEST(RunningStatsTest, DefaultModeRejectsPercentiles) {
  RunningStats stats;
  stats.Add(1.0);
  stats.Add(2.0);
  EXPECT_FALSE(stats.retains_samples());
  EXPECT_TRUE(stats.samples().empty());
  EXPECT_DOUBLE_EQ(stats.percentile(50), 0.0);
}

TEST(RunningStatsTest, RetainedModeAnswersPercentiles) {
  RunningStats stats(/*retain_samples=*/true);
  for (int v : {5, 1, 4, 2, 3}) {
    stats.Add(v);
  }
  EXPECT_TRUE(stats.retains_samples());
  ASSERT_EQ(stats.samples().size(), 5u);
  EXPECT_DOUBLE_EQ(stats.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(stats.percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(stats.percentile(100), 5.0);
  // Retention does not change the streaming summaries.
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
}

TEST(PercentilesTest, MatchesSingleRankQueries) {
  const std::vector<double> samples = {9, 2, 7, 4, 6, 1, 8, 3, 5, 10};
  const std::vector<double> ps = {0, 25, 50, 90, 100};
  const auto batch = Percentiles(samples, ps);
  ASSERT_EQ(batch.size(), ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], Percentile(samples, ps[i])) << "p" << ps[i];
  }
}

TEST(PercentilesTest, EmptyInputGivesZeros) {
  const auto out = Percentiles({}, {50, 99});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
}

}  // namespace
}  // namespace palette
