#include <gtest/gtest.h>

#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"

namespace gridvc {
namespace {

TEST(Split, BasicFields) {
  const auto f = split("a,b,c", ',');
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "b");
  EXPECT_EQ(f[2], "c");
}

TEST(Split, KeepsEmptyFields) {
  const auto f = split(",x,,", ',');
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0], "");
  EXPECT_EQ(f[1], "x");
  EXPECT_EQ(f[2], "");
  EXPECT_EQ(f[3], "");
}

TEST(Split, NoDelimiter) {
  const auto f = split("hello", ',');
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0], "hello");
}

TEST(Trim, StripsWhitespace) {
  EXPECT_EQ(trim("  abc \t"), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(FormatFixed, Decimals) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-2.5, 0), "-2");  // round-half-even via printf
  EXPECT_EQ(format_fixed(0.0, 1), "0.0");
}

TEST(FormatGrouped, ThousandsSeparators) {
  EXPECT_EQ(format_grouped(12037604.0, 0), "12,037,604");
  EXPECT_EQ(format_grouped(1234.5, 1), "1,234.5");
  EXPECT_EQ(format_grouped(999.0, 0), "999");
  EXPECT_EQ(format_grouped(-1000.0, 0), "-1,000");
}

TEST(FormatPercent, Fractions) {
  EXPECT_EQ(format_percent(0.5687, 2), "56.87%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("gridftp", "grid"));
  EXPECT_FALSE(starts_with("grid", "gridftp"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(FlagValues, WholeStringFiniteAndNonNegative) {
  EXPECT_DOUBLE_EQ(parse_flag_number("--time-scale", "1000000.000000"), 1e6);
  EXPECT_DOUBLE_EQ(parse_flag_number("--gap", "2.5e1"), 25.0);
  for (const char* bad : {"", "abc", "2x", "1e", " 5", "inf", "nan", "-1", "1e999"}) {
    EXPECT_EXIT(parse_flag_number("--gap", bad), testing::ExitedWithCode(2), "--gap: '")
        << bad;
  }
  EXPECT_EQ(parse_flag_count("--seed", "18446744073709551615"), 18446744073709551615ull);
  EXPECT_EQ(parse_flag_count("--shards", "16", 16), 16u);
  for (const char* bad : {"", "-1", "+3", "2x", "1.5", "18446744073709551616"}) {
    EXPECT_EXIT(parse_flag_count("--tasks", bad), testing::ExitedWithCode(2), "--tasks: '")
        << bad;
  }
  EXPECT_EXIT(parse_flag_count("--shards", "17", 16), testing::ExitedWithCode(2),
              "--shards: '17' is not a count in \\[0, 16\\]");
  // Sizes and lane counts: 0 is refused, not read as a default.
  EXPECT_EQ(parse_flag_positive("--tasks", "1"), 1u);
  EXPECT_EQ(parse_flag_positive("--shards", "16", 16), 16u);
  EXPECT_EXIT(parse_flag_positive("--tasks", "0"), testing::ExitedWithCode(2),
              "--tasks: '0' is not a count in \\[1, ");
  EXPECT_EXIT(parse_flag_positive("--shards", "17", 16), testing::ExitedWithCode(2),
              "--shards: '17' is not a count in \\[1, 16\\]");
}

TEST(Csv, SimpleLineRoundTrip) {
  const CsvRow row{"a", "b", "c"};
  EXPECT_EQ(format_csv_line(row), "a,b,c");
  EXPECT_EQ(parse_csv_line("a,b,c"), row);
}

TEST(Csv, QuotingCommasAndQuotes) {
  const CsvRow row{"plain", "has,comma", "has\"quote"};
  const std::string line = format_csv_line(row);
  EXPECT_EQ(parse_csv_line(line), row);
}

TEST(Csv, QuotedFieldWithEscapedQuote) {
  const auto row = parse_csv_line(R"("say ""hi""",x)");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], "say \"hi\"");
  EXPECT_EQ(row[1], "x");
}

TEST(Csv, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_csv_line("\"oops,1,2"), ParseError);
}

TEST(Csv, ToleratesTrailingCarriageReturn) {
  const auto row = parse_csv_line("a,b\r");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[1], "b");
}

TEST(Csv, StreamRoundTrip) {
  std::vector<CsvRow> rows{{"h1", "h2"}, {"1", "two words"}, {"3", "x,y"}};
  std::stringstream ss;
  write_csv(ss, rows);
  EXPECT_EQ(read_csv(ss), rows);
}

TEST(Csv, SkipsBlankLines) {
  std::stringstream ss("a,b\n\nc,d\n");
  const auto rows = read_csv(ss);
  ASSERT_EQ(rows.size(), 2u);
}

// JSON strings admit control bytes only escaped; the reader is strict.
TEST(Json, RawControlCharactersInAStringAreRefused) {
  using namespace std::string_literals;  // "..."s keeps the embedded NUL
  for (const std::string raw : {"{\"a\":\"x\ty\"}"s, "{\"a\":\"x\x01z\"}"s, "[\"\n\"]"s,
                                "{\"a\":\"\0\"}"s, "{\"k\x1f\":1}"s}) {
    try {
      parse_json(raw);
      ADD_FAILURE() << "accepted a raw control byte in " << raw.size() << " bytes";
    } catch (const ParseError& e) {
      // The message names the offset of the control byte itself.
      const std::size_t at = raw.find_first_of("\t\x01\n\x1f\0"s);
      EXPECT_NE(std::string(e.what()).find("offset " + std::to_string(at) + ":"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(parse_json("{\"a\":\"x\\ty\"}").string_at("a"), "x\ty");  // escaped is fine
}

TEST(Json, EveryControlCharacterRoundTripsThroughTheWriter) {
  std::string all;
  for (int c = 0; c < 0x20; ++c) all.push_back(static_cast<char>(c));
  all += "plain \"quoted\" back\\slash";
  std::ostringstream out;
  out << "{\"s\":";
  write_json_string(out, all);
  out << "}";
  for (const char c : out.str()) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "writer left a raw control byte";
  }
  EXPECT_EQ(parse_json(out.str()).string_at("s"), all);
}

}  // namespace
}  // namespace gridvc
