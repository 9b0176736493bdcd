// Tests for Cover: construction, cofactor, output restriction, literal
// merging, containment cleanup, binate variable selection.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "logic/cover.h"
#include "util/error.h"
#include "util/rng.h"

namespace ambit::logic {
namespace {

Cover exor2() {
  return Cover::parse(2, 1, {"10 1", "01 1"});
}

TEST(CoverTest, ParseBuildsCubes) {
  const Cover f = exor2();
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].to_string(), "10 1");
  EXPECT_EQ(f[1].to_string(), "01 1");
}

TEST(CoverTest, ParseValidatesArity) {
  EXPECT_THROW(Cover::parse(2, 1, {"101 1"}), Error);
  EXPECT_THROW(Cover::parse(2, 1, {"10 11"}), Error);
  EXPECT_THROW(Cover::parse(2, 1, {"10"}), Error);
}

TEST(CoverTest, AddRejectsEmptyCube) {
  Cover f(2, 1);
  Cube dead(2, 1);  // no outputs asserted
  EXPECT_THROW(f.add(dead), Error);
}

TEST(CoverTest, AddRejectsShapeMismatch) {
  Cover f(2, 1);
  EXPECT_THROW(f.add(Cube::parse("101", "1")), Error);
}

TEST(CoverTest, UniverseCoversEverything) {
  const Cover u = Cover::universe(3, 2);
  for (std::uint64_t m = 0; m < 8; ++m) {
    EXPECT_TRUE(u.covers_minterm(m, 0));
    EXPECT_TRUE(u.covers_minterm(m, 1));
  }
}

TEST(CoverTest, CoversMintermExor) {
  const Cover f = exor2();
  EXPECT_FALSE(f.covers_minterm(0b00, 0));
  EXPECT_TRUE(f.covers_minterm(0b01, 0));
  EXPECT_TRUE(f.covers_minterm(0b10, 0));
  EXPECT_FALSE(f.covers_minterm(0b11, 0));
}

TEST(CoverTest, CofactorDropsNonIntersecting) {
  const Cover f = exor2();
  Cube p = Cube::universe(2, 1);
  p.set_input(0, Literal::kOne);  // x0 = 1
  const Cover cf = f.cofactor(p);
  // Only "10 1" survives, cofactored to "-0 1".
  ASSERT_EQ(cf.size(), 1u);
  EXPECT_EQ(cf[0].input(0), Literal::kDontCare);
  EXPECT_EQ(cf[0].input(1), Literal::kZero);
}

TEST(CoverTest, RestrictedToOutputSelectsAndReshapes) {
  const Cover f = Cover::parse(2, 2, {"1- 10", "-1 01", "00 11"});
  const Cover f0 = f.restricted_to_output(0);
  const Cover f1 = f.restricted_to_output(1);
  EXPECT_EQ(f0.size(), 2u);
  EXPECT_EQ(f1.size(), 2u);
  EXPECT_EQ(f0.num_outputs(), 1);
  EXPECT_EQ(f0[0].to_string(), "1- 1");
  EXPECT_EQ(f1[1].to_string(), "00 1");
}

TEST(CoverTest, AndLiteralMergesShannonBranch) {
  Cover f = Cover::parse(2, 1, {"-1 1", "0- 1", "1- 1"});
  f.and_literal(0, true);
  // "-1" picks up x0=1; "0-" dies; "1-" unchanged.
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].to_string(), "11 1");
  EXPECT_EQ(f[1].to_string(), "1- 1");
}

TEST(CoverTest, SortAndDedupRemovesDuplicates) {
  Cover f = Cover::parse(2, 1, {"10 1", "01 1", "10 1"});
  f.sort_and_dedup();
  EXPECT_EQ(f.size(), 2u);
}

TEST(CoverTest, RemoveSingleCubeContained) {
  Cover f = Cover::parse(3, 1, {"1-- 1", "10- 1", "001 1"});
  f.remove_single_cube_contained();
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].to_string(), "1-- 1");
  EXPECT_EQ(f[1].to_string(), "001 1");
}

TEST(CoverTest, RemoveContainedKeepsOneOfEqualCubes) {
  Cover f = Cover::parse(2, 1, {"10 1", "10 1", "10 1"});
  f.remove_single_cube_contained();
  EXPECT_EQ(f.size(), 1u);
}

TEST(CoverTest, VarOccurrenceCounts) {
  const Cover f = Cover::parse(3, 1, {"10- 1", "1-0 1", "0-- 1"});
  const auto occ0 = f.var_occurrence(0);
  EXPECT_EQ(occ0.ones, 2);
  EXPECT_EQ(occ0.zeros, 1);
  const auto occ1 = f.var_occurrence(1);
  EXPECT_EQ(occ1.ones, 0);
  EXPECT_EQ(occ1.zeros, 1);
  const auto occ2 = f.var_occurrence(2);
  EXPECT_EQ(occ2.ones, 0);
  EXPECT_EQ(occ2.zeros, 1);
}

TEST(CoverTest, UnateDetection) {
  EXPECT_FALSE(exor2().is_unate());
  const Cover unate = Cover::parse(3, 1, {"1-- 1", "11- 1", "--0 1"});
  EXPECT_TRUE(unate.is_unate());
}

TEST(CoverTest, MostBinateVarPrefersBalancedColumns) {
  // x0: 2 ones, 2 zeros (binate, balanced); x1: 1 one, 1 zero (binate).
  const Cover f =
      Cover::parse(2, 1, {"11 1", "10 1", "00 1", "01 1"});
  EXPECT_EQ(f.most_binate_var(), 0);
}

TEST(CoverTest, MostBinateVarMinusOneWhenUnate) {
  const Cover f = Cover::parse(2, 1, {"1- 1", "-1 1"});
  EXPECT_EQ(f.most_binate_var(), -1);
  EXPECT_EQ(f.most_frequent_var(), 0);
}

TEST(CoverTest, HasUniversalInputCube) {
  Cover f = Cover::parse(2, 1, {"10 1"});
  EXPECT_FALSE(f.has_universal_input_cube());
  f.add(Cube::universe(2, 1));
  EXPECT_TRUE(f.has_universal_input_cube());
}

TEST(CoverTest, TotalLiterals) {
  const Cover f = Cover::parse(3, 1, {"10- 1", "--1 1"});
  EXPECT_EQ(f.total_literals(), 3);
}

TEST(CoverTest, AppendConcatenates) {
  Cover f = exor2();
  Cover g = Cover::parse(2, 1, {"11 1"});
  f.append(g);
  EXPECT_EQ(f.size(), 3u);
}

TEST(CoverTest, RemoveAtPreservesOrder) {
  Cover f = Cover::parse(2, 1, {"10 1", "01 1", "11 1"});
  f.remove_at(1);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].to_string(), "10 1");
  EXPECT_EQ(f[1].to_string(), "11 1");
}

// ---------------------------------------------------------------------------
// Multi-word covers: the word-parallel cover operations against
// references built part by part from input(i) and output(j).
// ---------------------------------------------------------------------------

struct Shape {
  int inputs;
  int outputs;
};

// Input parts spanning words, output parts straddling a word boundary,
// and one shape stored on the heap (see cube_test's kWideShapes).
constexpr Shape kWideShapes[] = {{30, 10}, {40, 3}, {70, 3},
                                 {16, 48}, {33, 31}, {100, 20}};

/// A random cover over few distinct literal positions, so that cubes
/// repeat, contain each other and share outputs.
Cover random_wide_cover(Rng& rng, Shape shape, int cubes) {
  Cover f(shape.inputs, shape.outputs);
  for (int k = 0; k < cubes; ++k) {
    Cube c(shape.inputs, shape.outputs);
    for (int i = 0; i < shape.inputs; i += 7) {
      const auto r = rng.next_below(4);
      if (r < 2) {
        c.set_input(i, r == 0 ? Literal::kZero : Literal::kOne);
      }
    }
    c.set_output(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(shape.outputs))),
                 true);
    for (int j = 0; j < shape.outputs; j += 5) {
      c.set_output(j, c.output(j) || rng.next_bool(0.3));
    }
    f.add(c);
  }
  return f;
}

bool ref_contains(const Cube& a, const Cube& b) {
  for (int i = 0; i < a.num_inputs(); ++i) {
    const int pa = static_cast<int>(a.input(i));
    const int pb = static_cast<int>(b.input(i));
    if ((pa & pb) != pb) return false;
  }
  for (int j = 0; j < a.num_outputs(); ++j) {
    if (b.output(j) && !a.output(j)) return false;
  }
  return true;
}

TEST(CoverWideTest, RemoveSingleCubeContainedMatchesPairwiseReference) {
  // The reference is the pairwise definition: a cube dies when a live
  // cube contains it, except that of two equal cubes the earlier one
  // survives. Survivors and their order must match.
  Rng rng(0xA11CE);
  for (const Shape shape : kWideShapes) {
    for (int trial = 0; trial < 20; ++trial) {
      Cover f = random_wide_cover(rng, shape, 40);
      const std::size_t n = f.size();
      std::vector<bool> dead(n, false);
      for (std::size_t i = 0; i < n; ++i) {
        if (dead[i]) continue;
        for (std::size_t j = 0; j < n; ++j) {
          if (i == j || dead[j] || !ref_contains(f[i], f[j])) continue;
          if (!(ref_contains(f[j], f[i]) && j < i)) dead[j] = true;
        }
      }
      std::vector<std::string> expected;
      for (std::size_t i = 0; i < n; ++i) {
        if (!dead[i]) expected.push_back(f[i].to_string());
      }
      f.remove_single_cube_contained();
      std::vector<std::string> actual;
      for (const Cube& c : f) actual.push_back(c.to_string());
      EXPECT_EQ(actual, expected) << shape.inputs << "x" << shape.outputs;
    }
  }
}

TEST(CoverWideTest, RestrictedToOutputMatchesPartwiseReference) {
  Rng rng(0xBEEF);
  for (const Shape shape : kWideShapes) {
    const Cover f = random_wide_cover(rng, shape, 30);
    for (int j = 0; j < shape.outputs; ++j) {
      const Cover r = f.restricted_to_output(j);
      ASSERT_EQ(r.num_outputs(), 1);
      std::size_t next = 0;
      for (const Cube& c : f) {
        if (!c.output(j)) continue;
        ASSERT_LT(next, r.size());
        for (int i = 0; i < shape.inputs; ++i) {
          EXPECT_EQ(r[next].input(i), c.input(i));
        }
        EXPECT_TRUE(r[next].output(0));
        ++next;
      }
      EXPECT_EQ(next, r.size());
    }
  }
}

TEST(CoverWideTest, ColumnCountsCofactorAndAndLiteralMatchReference) {
  Rng rng(0xD1CE);
  for (const Shape shape : kWideShapes) {
    const Cover f = random_wide_cover(rng, shape, 30);
    std::vector<VarOccurrence> counts;
    f.var_occurrences(counts);
    ASSERT_EQ(counts.size(), static_cast<std::size_t>(shape.inputs));
    for (int i = 0; i < shape.inputs; ++i) {
      int zeros = 0;
      int ones = 0;
      for (const Cube& c : f) {
        zeros += c.input(i) == Literal::kZero;
        ones += c.input(i) == Literal::kOne;
      }
      EXPECT_EQ(counts[static_cast<std::size_t>(i)].zeros, zeros);
      EXPECT_EQ(counts[static_cast<std::size_t>(i)].ones, ones);
      EXPECT_EQ(f.var_occurrence(i).zeros, zeros);
      EXPECT_EQ(f.var_occurrence(i).ones, ones);
    }
    // Cofactor against a cube with literals in several words.
    Cube p = Cube::universe(shape.inputs, shape.outputs);
    p.set_input(0, Literal::kOne);
    p.set_input(shape.inputs - 1, Literal::kZero);
    p.set_output(shape.outputs - 1, false);
    const Cover cf = f.cofactor(p);
    std::size_t next = 0;
    for (const Cube& c : f) {
      if (!c.intersects(p)) continue;
      ASSERT_LT(next, cf.size());
      EXPECT_EQ(cf[next], c.cofactor(p));
      ++next;
    }
    EXPECT_EQ(next, cf.size());
    // and_literal on the last variable (the highest input word).
    const int var = shape.inputs - 1;
    Cover anded = f;
    anded.and_literal(var, true);
    next = 0;
    for (const Cube& c : f) {
      if (c.input(var) == Literal::kZero) continue;
      Cube expected = c;
      expected.set_input(var, Literal::kOne);
      ASSERT_LT(next, anded.size());
      EXPECT_EQ(anded[next], expected);
      ++next;
    }
    EXPECT_EQ(next, anded.size());
  }
}

}  // namespace
}  // namespace ambit::logic
