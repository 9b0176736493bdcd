// Tests for the unate-recursive kernels: tautology, complement, covers,
// offset. Includes randomized property sweeps cross-checked against
// exhaustive truth tables.
#include <gtest/gtest.h>

#include <optional>

#include "espresso/unate.h"
#include "logic/truth_table.h"
#include "util/error.h"
#include "util/rng.h"

namespace ambit::espresso {
namespace {

using logic::Cover;
using logic::Cube;
using logic::Literal;
using logic::TruthTable;

Cover random_cover(ambit::Rng& rng, int ni, int max_cubes) {
  Cover f(ni, 1);
  const int cubes = 1 + static_cast<int>(rng.next_below(
                            static_cast<std::uint64_t>(max_cubes)));
  for (int k = 0; k < cubes; ++k) {
    Cube c(ni, 1);
    c.set_output(0, true);
    for (int i = 0; i < ni; ++i) {
      const auto r = rng.next_below(4);
      // Bias toward don't-care so cubes are reasonably large.
      c.set_input(i, r == 0   ? Literal::kZero
                     : r == 1 ? Literal::kOne
                              : Literal::kDontCare);
    }
    f.add(c);
  }
  return f;
}

TEST(TautologyTest, EmptyCoverIsNotTautology) {
  EXPECT_FALSE(tautology(Cover(3, 1)));
}

TEST(TautologyTest, UniverseIsTautology) {
  EXPECT_TRUE(tautology(Cover::universe(3, 1)));
}

TEST(TautologyTest, XPlusNotXIsTautology) {
  EXPECT_TRUE(tautology(Cover::parse(1, 1, {"1 1", "0 1"})));
}

TEST(TautologyTest, SingleLiteralIsNot) {
  EXPECT_FALSE(tautology(Cover::parse(1, 1, {"1 1"})));
}

TEST(TautologyTest, ShannonExpansionOfMajority) {
  // maj(a,b,c) is not a tautology; maj + its complement is.
  const Cover maj = Cover::parse(3, 1, {"11- 1", "1-1 1", "-11 1"});
  EXPECT_FALSE(tautology(maj));
  Cover both = maj;
  both.append(Cover::parse(3, 1, {"00- 1", "0-0 1", "-00 1"}));
  EXPECT_TRUE(tautology(both));
}

TEST(TautologyTest, UnateReductionPath) {
  // Positive-unate cover that is not a tautology: must exercise the
  // unate-reduction branch, not just base cases.
  const Cover f = Cover::parse(3, 1, {"1-- 1", "11- 1", "1-1 1"});
  EXPECT_FALSE(tautology(f));
}

TEST(TautologyTest, MatchesTruthTableOnRandomCovers) {
  ambit::Rng rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    const int ni = 3 + static_cast<int>(rng.next_below(6));
    const Cover f = random_cover(rng, ni, 10);
    const TruthTable t = TruthTable::from_cover(f);
    const bool expected = t.count_ones(0) == t.num_minterms();
    EXPECT_EQ(tautology(f), expected) << "cover:\n" << f.to_string();
  }
}

TEST(ComplementTest, ComplementOfEmptyIsUniverse) {
  const Cover r = complement(Cover(3, 1));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].input_literal_count(), 0);
}

TEST(ComplementTest, ComplementOfUniverseIsEmpty) {
  EXPECT_TRUE(complement(Cover::universe(3, 1)).empty());
}

TEST(ComplementTest, DeMorganOnSingleCube) {
  // (x0 x̄2)' = x̄0 + x2.
  const Cover f = Cover::parse(3, 1, {"1-0 1"});
  const Cover r = complement(f);
  const TruthTable tf = TruthTable::from_cover(f);
  const TruthTable tr = TruthTable::from_cover(r);
  EXPECT_EQ(tr, tf.complemented());
  EXPECT_EQ(r.size(), 2u);
}

TEST(ComplementTest, ComplementCubeOfUniverseIsEmpty) {
  EXPECT_TRUE(complement_cube(Cube::universe(4, 1)).empty());
}

TEST(ComplementTest, MatchesTruthTableOnRandomCovers) {
  ambit::Rng rng(777);
  for (int trial = 0; trial < 60; ++trial) {
    const int ni = 3 + static_cast<int>(rng.next_below(6));
    const Cover f = random_cover(rng, ni, 10);
    const Cover r = complement(f);
    const TruthTable expected = TruthTable::from_cover(f).complemented();
    EXPECT_TRUE(logic::equivalent(r, expected))
        << "cover:\n" << f.to_string() << "complement:\n" << r.to_string();
  }
}

TEST(ComplementTest, DoubleComplementIsIdentity) {
  ambit::Rng rng(555);
  for (int trial = 0; trial < 30; ++trial) {
    const Cover f = random_cover(rng, 6, 8);
    EXPECT_TRUE(logic::equivalent(complement(complement(f)), f));
  }
}

TEST(ComplementTest, ComplementDisjointFromOriginal) {
  ambit::Rng rng(321);
  for (int trial = 0; trial < 30; ++trial) {
    const Cover f = random_cover(rng, 5, 8);
    const Cover r = complement(f);
    const TruthTable tf = TruthTable::from_cover(f);
    const TruthTable tr = TruthTable::from_cover(r);
    for (std::uint64_t m = 0; m < tf.num_minterms(); ++m) {
      EXPECT_NE(tf.get(m, 0), tr.get(m, 0));
    }
  }
}

TEST(ComplementTest, ResultIsFreeOfSingleCubeContainment) {
  // complement() merges its Shannon branches without a containment
  // sweep; that is exact only because the merged cover never has one.
  ambit::Rng rng(2468);
  for (int trial = 0; trial < 200; ++trial) {
    const int ni = 3 + static_cast<int>(rng.next_below(10));
    const Cover r = complement(random_cover(rng, ni, 14));
    Cover swept = r;
    swept.remove_single_cube_contained();
    EXPECT_EQ(swept, r) << "complement:\n" << r.to_string();
  }
}

TEST(ComplementSupercubeTest, EqualsTheSupercubeOfTheComplement) {
  ambit::Rng rng(1357);
  for (int trial = 0; trial < 300; ++trial) {
    const int ni = 2 + static_cast<int>(rng.next_below(9));
    const Cover f = random_cover(rng, ni, 1 + trial % 12);
    const Cover r = complement(f);
    const std::optional<Cube> s = complement_supercube(f);
    ASSERT_EQ(s.has_value(), !r.empty()) << f.to_string();
    if (!s.has_value()) {
      continue;
    }
    Cube expected = r[0];
    for (std::size_t i = 1; i < r.size(); ++i) {
      expected = expected.supercube(r[i]);
    }
    for (int i = 0; i < ni; ++i) {
      EXPECT_EQ(s->input(i), expected.input(i)) << f.to_string();
    }
  }
}

TEST(ComplementSupercubeTest, EdgeCases) {
  // Empty cover: the complement is everything.
  EXPECT_EQ(complement_supercube(Cover(3, 1))->to_string(), "--- 1");
  // Tautology: nothing left to contain.
  EXPECT_FALSE(complement_supercube(Cover::parse(2, 1, {"1- 1", "0- 1"})).has_value());
  // Unate covers take the closed form: a one-literal cube pins its
  // variable to the other value, larger cubes leave it free.
  EXPECT_EQ(complement_supercube(Cover::parse(3, 1, {"1-- 1", "-01 1"}))->to_string(),
            "0-- 1");
  EXPECT_EQ(complement_supercube(Cover::parse(3, 1, {"11- 1"}))->to_string(), "--- 1");
  EXPECT_THROW(complement_supercube(Cover(2, 2)), Error);
}

TEST(CoversTest, CubeCoveredByItsCover) {
  const Cover f = Cover::parse(3, 1, {"1-- 1", "-1- 1"});
  EXPECT_TRUE(covers(f, nullptr, Cube::parse("11-", "1")));
  EXPECT_TRUE(covers(f, nullptr, Cube::parse("1--", "1")));
}

TEST(CoversTest, SplitCoverageNeedsBothCubes) {
  // "1-" and "0-" jointly cover the universe cube.
  const Cover f = Cover::parse(2, 1, {"1- 1", "0- 1"});
  EXPECT_TRUE(covers(f, nullptr, Cube::universe(2, 1)));
}

TEST(CoversTest, UncoveredCubeDetected) {
  const Cover f = Cover::parse(3, 1, {"1-- 1"});
  EXPECT_FALSE(covers(f, nullptr, Cube::parse("0--", "1")));
  EXPECT_FALSE(covers(f, nullptr, Cube::universe(3, 1)));
}

TEST(CoversTest, DontCaresParticipate) {
  const Cover f = Cover::parse(2, 1, {"1- 1"});
  const Cover d = Cover::parse(2, 1, {"0- 1"});
  EXPECT_FALSE(covers(f, nullptr, Cube::universe(2, 1)));
  EXPECT_TRUE(covers(f, &d, Cube::universe(2, 1)));
}

TEST(CoversTest, MultiOutputChecksEveryAssertedOutput) {
  const Cover g = Cover::parse(2, 2, {"1- 10", "-1 01"});
  // Covered for output 0 only.
  EXPECT_TRUE(covers(g, nullptr, Cube::parse("1-", "10")));
  EXPECT_FALSE(covers(g, nullptr, Cube::parse("1-", "11")));
  EXPECT_FALSE(covers(g, nullptr, Cube::parse("10", "01")));
}

TEST(OffsetTest, OffsetOfExorIsXnor) {
  const Cover f = Cover::parse(2, 1, {"10 1", "01 1"});
  const Cover off = offset(f, Cover(2, 1));
  const TruthTable t = TruthTable::from_cover(off);
  EXPECT_TRUE(t.get(0b00, 0));
  EXPECT_TRUE(t.get(0b11, 0));
  EXPECT_FALSE(t.get(0b01, 0));
  EXPECT_FALSE(t.get(0b10, 0));
}

TEST(OffsetTest, DontCaresExcludedFromOffset) {
  const Cover f = Cover::parse(2, 1, {"11 1"});
  const Cover d = Cover::parse(2, 1, {"10 1"});
  const Cover off = offset(f, d);
  const TruthTable t = TruthTable::from_cover(off);
  EXPECT_FALSE(t.get(0b11, 0));  // onset
  EXPECT_FALSE(t.get(0b01, 0));  // don't-care: not in offset
  EXPECT_TRUE(t.get(0b00, 0));
  EXPECT_TRUE(t.get(0b10, 0));
}

TEST(OffsetTest, PerOutputTagging) {
  const Cover f = Cover::parse(1, 2, {"1 10", "0 01"});
  const Cover off = offset(f, Cover(1, 2));
  // Offset of out0 is x̄; of out1 is x. Each tagged with its own output.
  const TruthTable t = TruthTable::from_cover(off);
  EXPECT_TRUE(t.get(0, 0));
  EXPECT_FALSE(t.get(1, 0));
  EXPECT_TRUE(t.get(1, 1));
  EXPECT_FALSE(t.get(0, 1));
}

TEST(OffsetTest, OnsetPlusOffsetIsTautologyPerOutput) {
  ambit::Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const Cover f = random_cover(rng, 5, 8);
    const Cover off = offset(f, Cover(5, 1));
    Cover both = f;
    both.append(off);
    EXPECT_TRUE(tautology(both.restricted_to_output(0)));
  }
}

TEST(KernelGuards, SingleOutputEnforced) {
  const Cover multi = Cover::parse(2, 2, {"1- 11"});
  EXPECT_THROW(tautology(multi), ambit::Error);
  EXPECT_THROW(complement(multi), ambit::Error);
}

}  // namespace
}  // namespace ambit::espresso
