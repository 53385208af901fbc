#include "util/strings.h"

#include <gtest/gtest.h>

namespace biorank {
namespace {

TEST(StringsTest, FormatDoubleFixedPrecision) {
  EXPECT_EQ(FormatDouble(0.5, 4), "0.5000");
  EXPECT_EQ(FormatDouble(1.0 / 3.0, 2), "0.33");
  EXPECT_EQ(FormatDouble(-2.5, 1), "-2.5");
}

TEST(StringsTest, FormatCompactStripsTrailingZeros) {
  EXPECT_EQ(FormatCompact(0.5, 4), "0.5");
  EXPECT_EQ(FormatCompact(0.46875, 5), "0.46875");
  EXPECT_EQ(FormatCompact(2.0, 4), "2");
  EXPECT_EQ(FormatCompact(0.1 + 0.2, 4), "0.3");
}

TEST(StringsTest, Padding) {
  EXPECT_EQ(PadLeft("ab", 5), "   ab");
  EXPECT_EQ(PadRight("ab", 5), "ab   ");
  EXPECT_EQ(PadLeft("abcdef", 3), "abcdef");
  EXPECT_EQ(PadRight("abcdef", 3), "abcdef");
}

TEST(StringsTest, FormatRankIntervalMatchesPaperTables) {
  // Table 2 renders unique ranks bare and ties as ranges.
  EXPECT_EQ(FormatRankInterval(17, 17), "17");
  EXPECT_EQ(FormatRankInterval(21, 22), "21-22");
  EXPECT_EQ(FormatRankInterval(34, 97), "34-97");
}

}  // namespace
}  // namespace biorank
