// Tests for src/util: RNG determinism and distribution sanity, string
// helpers, ASCII table rendering, error helpers.
#include <gtest/gtest.h>

#include <set>

#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

namespace ambit {
namespace {

TEST(ErrorTest, CheckThrowsOnFalse) {
  EXPECT_NO_THROW(check(true, "fine"));
  EXPECT_THROW(check(false, "boom"), Error);
}

TEST(ErrorTest, RequireAnnotatesInvariantViolations) {
  try {
    require(false, "the invariant");
    FAIL() << "require(false) must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("invariant"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("the invariant"), std::string::npos);
  }
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngStreamTest, SameSeedAndIndexReproduce) {
  Rng a = Rng::stream(99, 17);
  Rng b = Rng::stream(99, 17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngStreamTest, ConsecutiveIndicesDecohere) {
  // Nearby stream indices must yield unrelated sequences — this is
  // what makes per-trial streams safe for parallel Monte-Carlo.
  Rng a = Rng::stream(99, 0);
  Rng b = Rng::stream(99, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.next_u64() == b.next_u64();
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngStreamTest, StreamZeroIsNotThePlainGenerator) {
  Rng plain(99);
  Rng stream0 = Rng::stream(99, 0);
  EXPECT_NE(plain.next_u64(), stream0.next_u64());
}

TEST(RngStreamTest, StreamsAreStatisticallyUniform) {
  // Pool one draw from each of many streams; the pooled doubles must
  // still look uniform (coarse mean test).
  double sum = 0;
  constexpr int kStreams = 2000;
  for (int s = 0; s < kStreams; ++s) {
    sum += Rng::stream(7, static_cast<std::uint64_t>(s)).next_double();
  }
  EXPECT_NEAR(sum / kStreams, 0.5, 0.05);
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    differing += a.next_u64() != b.next_u64();
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(RngTest, NextBelowHitsAllResidues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.next_below(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextInCoversInclusiveRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequencyTracksP) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.next_bool(0.25);
  }
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ZeroBoundRejected) {
  Rng rng(1);
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(StringsTest, TrimStripsBothEnds) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringsTest, SplitWsSkipsEmptyTokens) {
  const auto tokens = split_ws("  a  bb\tccc \n");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "bb");
  EXPECT_EQ(tokens[2], "ccc");
}

TEST(StringsTest, SplitWsEmptyInput) {
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(StringsTest, NextTokenConsumesOneTokenAtATime) {
  std::string_view rest = "  EVAL s\t1f \n";
  EXPECT_EQ(next_token(rest), "EVAL");
  EXPECT_EQ(rest, " s\t1f \n");
  EXPECT_EQ(next_token(rest), "s");
  EXPECT_EQ(next_token(rest), "1f");
  EXPECT_EQ(next_token(rest), "");
  EXPECT_TRUE(rest.empty());
  EXPECT_EQ(next_token(rest), "");
}

TEST(StringsTest, SplitOnKeepsEmptyFields) {
  const auto fields = split_on("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with(".i 4", ".i"));
  EXPECT_FALSE(starts_with(".i", ".i 4"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.5, 0), "-0");
}

TEST(StringsTest, FormatPercent) {
  EXPECT_EQ(format_percent(-0.2105, 1), "-21.1%");
  EXPECT_EQ(format_percent(0.684, 1), "+68.4%");
}

TEST(TableTest, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "10"});
  t.add_row({"longer", "7"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 7     |"), std::string::npos);
}

TEST(TableTest, RowArityChecked) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TableTest, SeparatorRendersRule) {
  TextTable t({"a"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string out = t.render();
  // Header rule + separator + closing rule + top rule = 4 rules.
  int rules = 0;
  for (std::size_t pos = 0; (pos = out.find("+---", pos)) != std::string::npos;
       ++pos) {
    ++rules;
  }
  EXPECT_EQ(rules, 4);
}

}  // namespace
}  // namespace ambit
