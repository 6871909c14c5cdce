#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "metrics/summary.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace rid {
namespace {

// --- csv -------------------------------------------------------------------

TEST(Csv, EscapePlainFieldUnchanged) {
  EXPECT_EQ(util::csv_escape("hello"), "hello");
}

TEST(Csv, EscapeQuotesCommasNewlines) {
  EXPECT_EQ(util::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(util::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(util::csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WriterRoundTripsThroughParser) {
  std::ostringstream oss;
  util::CsvWriter writer(oss);
  writer.write_row({"a,b", "plain", "q\"uote"});
  const auto fields = util::csv_parse_line(oss.str());
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a,b");
  EXPECT_EQ(fields[1], "plain");
  EXPECT_EQ(fields[2], "q\"uote");
}

TEST(Csv, WriterFormatsNumbers) {
  std::ostringstream oss;
  util::CsvWriter writer(oss);
  writer.row("x", 1.5, 42, -7);
  EXPECT_EQ(oss.str(), "x,1.5,42,-7\n");
  EXPECT_EQ(writer.rows_written(), 1u);
}

TEST(Csv, ParseEmptyFields) {
  const auto fields = util::csv_parse_line("a,,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "");
}

// --- table -----------------------------------------------------------------

TEST(AsciiTable, RendersAlignedColumns) {
  util::AsciiTable table({"name", "value"});
  table.row("alpha", 3.0);
  table.row("beta-longer", 0.09);
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("beta-longer"), std::string::npos);
  EXPECT_NE(rendered.find("3.0000"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(AsciiTable, TitleAppearsWhenSet) {
  util::AsciiTable table({"a"});
  table.set_title("My Title");
  table.row(1);
  EXPECT_NE(table.to_string().find("== My Title =="), std::string::npos);
}

TEST(AsciiTable, ShortRowsArePadded) {
  util::AsciiTable table({"a", "b", "c"});
  table.add_row({"only-one"});
  EXPECT_NO_THROW(table.to_string());
}

TEST(AsciiTable, PrecisionIsConfigurable) {
  util::AsciiTable table({"v"});
  table.set_precision(1);
  table.row(2.789);
  EXPECT_NE(table.to_string().find("2.8"), std::string::npos);
}

// --- flags -----------------------------------------------------------------

TEST(Flags, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=3.5", "--name", "epinions",
                        "--verbose"};
  const auto flags = util::Flags::parse(5, argv);
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0.0), 3.5);
  EXPECT_EQ(flags.get_string("name", ""), "epinions");
  EXPECT_TRUE(flags.get_bool("verbose", false));
}

TEST(Flags, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  const auto flags = util::Flags::parse(1, argv);
  EXPECT_EQ(flags.get_int("missing", 7), 7);
  EXPECT_FALSE(flags.has("missing"));
}

TEST(Flags, PositionalArguments) {
  const char* argv[] = {"prog", "input.txt", "--k=2", "output.txt"};
  const auto flags = util::Flags::parse(4, argv);
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "output.txt");
  EXPECT_EQ(flags.get_int("k", 0), 2);
}

TEST(Flags, ConversionErrorsThrow) {
  const char* argv[] = {"prog",          "--n=abc",  "--b=maybe",
                        "--neg=-1",      "--big=4294967296",
                        "--zero=0",      "--seven=7"};
  const auto flags = util::Flags::parse(7, argv);
  EXPECT_THROW(flags.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(flags.get_bool("b", false), std::invalid_argument);
  // Counts refuse what a cast to the target type would wrap around.
  EXPECT_THROW(flags.get_count<std::uint32_t>("n", 0), std::invalid_argument);
  EXPECT_THROW(flags.get_count<std::uint32_t>("big", 0), std::invalid_argument);
  try {
    flags.get_count<std::uint32_t>("neg", 0);
    ADD_FAILURE() << "--neg=-1 accepted as a count";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--neg"), std::string::npos);
  }
  EXPECT_EQ(flags.get_count<std::uint64_t>("big", 0), 4294967296u);
  EXPECT_EQ(flags.get_count<std::uint32_t>("zero", 5), 0u);
  EXPECT_EQ(flags.get_count<std::uint32_t>("seven", 0), 7u);
  EXPECT_EQ(flags.get_count<std::uint32_t>("absent", 9), 9u);
  EXPECT_THROW(flags.get_count<std::uint32_t>("seven", 0, 6),
               std::invalid_argument);
}

TEST(Flags, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=1", "--b=no", "--c=on", "--d=false"};
  const auto flags = util::Flags::parse(5, argv);
  EXPECT_TRUE(flags.get_bool("a", false));
  EXPECT_FALSE(flags.get_bool("b", true));
  EXPECT_TRUE(flags.get_bool("c", false));
  EXPECT_FALSE(flags.get_bool("d", true));
}

TEST(Flags, UnreadNamesFlagsNoCallerConsulted) {
  const char* argv[] = {"prog",       "--thread=4", "--seed=3", "--thread=8",
                        "--verbose",  "input.txt",  "--in-ram"};
  const auto flags = util::Flags::parse(7, argv);
  EXPECT_EQ(flags.unread(),
            (std::vector<std::string>{"thread", "seed", "verbose", "in-ram"}));
  EXPECT_EQ(flags.get_int("seed", 0), 3);
  EXPECT_FALSE(flags.has("threads"));  // a name not given is not listed
  EXPECT_TRUE(flags.has("verbose"));   // has() counts as a read
  EXPECT_EQ(flags.unread(), (std::vector<std::string>{"thread", "in-ram"}));
  EXPECT_EQ(flags.get_string("in-ram", ""), "true");
  EXPECT_EQ(flags.get_int("thread", 0), 8);
  EXPECT_TRUE(flags.unread().empty());
}

// --- logging ---------------------------------------------------------------

TEST(Logging, ScopedLevelRestores) {
  const util::LogLevel before = util::log_level();
  {
    util::ScopedLogLevel quiet(util::LogLevel::kOff);
    EXPECT_EQ(util::log_level(), util::LogLevel::kOff);
  }
  EXPECT_EQ(util::log_level(), before);
}

// --- timer -----------------------------------------------------------------

TEST(Timer, MeasuresNonNegativeAndMonotonic) {
  util::Timer timer;
  const double a = timer.seconds();
  const double b = timer.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  timer.reset();
  EXPECT_GE(timer.seconds(), 0.0);
}

TEST(Timer, FormatDurationPicksUnits) {
  EXPECT_EQ(util::format_duration(2.5), "2.500 s");
  EXPECT_EQ(util::format_duration(0.0025), "2.500 ms");
  EXPECT_EQ(util::format_duration(0.0000025), "2.5 us");
}

// --- RunningStat -----------------------------------------------------------

TEST(RunningStat, MeanAndVariance) {
  metrics::RunningStat stat;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.add(x);
  EXPECT_EQ(stat.count(), 8u);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_NEAR(stat.variance(), 4.571428, 1e-5);  // sample variance
  EXPECT_DOUBLE_EQ(stat.min(), 2.0);
  EXPECT_DOUBLE_EQ(stat.max(), 9.0);
}

TEST(RunningStat, SingleSampleHasZeroVariance) {
  metrics::RunningStat stat;
  stat.add(3.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stat.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(stat.mean(), 3.0);
}

TEST(RunningStat, EmptyIsZeroed) {
  metrics::RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
}

}  // namespace
}  // namespace rid
