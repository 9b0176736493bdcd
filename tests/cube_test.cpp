// Tests for the positional-cube algebra: encoding, intersection,
// containment, distance, consensus, cofactor, minterm coverage.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "logic/cube.h"
#include "util/error.h"
#include "util/rng.h"

namespace ambit::logic {
namespace {

TEST(CubeTest, FreshCubeIsDontCareInputsNoOutputs) {
  Cube c(3, 2);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(c.input(i), Literal::kDontCare);
  }
  EXPECT_TRUE(c.output_empty());
  EXPECT_TRUE(c.empty());
}

TEST(CubeTest, UniverseAssertsEverything) {
  const Cube u = Cube::universe(4, 3);
  EXPECT_FALSE(u.empty());
  EXPECT_EQ(u.input_literal_count(), 0);
  EXPECT_EQ(u.output_count(), 3);
}

TEST(CubeTest, ParseRoundTripsToString) {
  const Cube c = Cube::parse("10-1", "01");
  EXPECT_EQ(c.to_string(), "10-1 01");
  EXPECT_EQ(c.input(0), Literal::kOne);
  EXPECT_EQ(c.input(1), Literal::kZero);
  EXPECT_EQ(c.input(2), Literal::kDontCare);
  EXPECT_EQ(c.input(3), Literal::kOne);
  EXPECT_FALSE(c.output(0));
  EXPECT_TRUE(c.output(1));
}

TEST(CubeTest, ParseRejectsBadCharacters) {
  EXPECT_THROW(Cube::parse("10x", "1"), Error);
  EXPECT_THROW(Cube::parse("10", "z"), Error);
}

TEST(CubeTest, SetInputUpdatesLiteralCount) {
  Cube c(5, 1);
  c.set_output(0, true);
  EXPECT_EQ(c.input_literal_count(), 0);
  c.set_input(1, Literal::kZero);
  c.set_input(4, Literal::kOne);
  EXPECT_EQ(c.input_literal_count(), 2);
  c.set_input(1, Literal::kDontCare);
  EXPECT_EQ(c.input_literal_count(), 1);
}

TEST(CubeTest, EmptyInputPartDetected) {
  Cube c(2, 1);
  c.set_output(0, true);
  EXPECT_FALSE(c.input_empty());
  c.set_input(0, Literal::kEmpty);
  EXPECT_TRUE(c.input_empty());
  EXPECT_TRUE(c.empty());
}

TEST(CubeTest, DistanceCountsConflictingParts) {
  const Cube a = Cube::parse("101-", "1");
  const Cube b = Cube::parse("011-", "1");
  // Conflicts at inputs 0 and 1; outputs meet.
  EXPECT_EQ(a.distance(b), 2);
  const Cube c = Cube::parse("1---", "1");
  EXPECT_EQ(a.distance(c), 0);
  EXPECT_TRUE(a.intersects(c));
}

TEST(CubeTest, DistanceCountsOutputPartOnce) {
  const Cube a = Cube::parse("1-", "10");
  const Cube b = Cube::parse("1-", "01");
  EXPECT_EQ(a.distance(b), 1);
  const Cube c = Cube::parse("0-", "01");
  EXPECT_EQ(a.distance(c), 2);
}

TEST(CubeTest, IntersectIsBitwiseAnd) {
  const Cube a = Cube::parse("1--", "11");
  const Cube b = Cube::parse("-0-", "10");
  const Cube x = a.intersect(b);
  EXPECT_EQ(x.input(0), Literal::kOne);
  EXPECT_EQ(x.input(1), Literal::kZero);
  EXPECT_EQ(x.input(2), Literal::kDontCare);
  EXPECT_TRUE(x.output(0));
  EXPECT_FALSE(x.output(1));
}

TEST(CubeTest, ContainmentIsBitwiseSuperset) {
  const Cube big = Cube::parse("1--", "11");
  const Cube small = Cube::parse("10-", "01");
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));
  EXPECT_TRUE(big.contains(big));
}

TEST(CubeTest, InputContainsIgnoresOutputs) {
  const Cube a = Cube::parse("1--", "10");
  const Cube b = Cube::parse("10-", "01");
  EXPECT_TRUE(a.input_contains(b));
  EXPECT_FALSE(a.contains(b));
}

TEST(CubeTest, SupercubeIsBitwiseOr) {
  const Cube a = Cube::parse("10-", "10");
  const Cube b = Cube::parse("11-", "01");
  const Cube s = a.supercube(b);
  EXPECT_EQ(s.input(0), Literal::kOne);
  EXPECT_EQ(s.input(1), Literal::kDontCare);
  EXPECT_EQ(s.input(2), Literal::kDontCare);
  EXPECT_TRUE(s.output(0));
  EXPECT_TRUE(s.output(1));
}

TEST(CubeTest, ConsensusAtDistanceOneSpansConflict) {
  // x·y + x̄·z have consensus y·z at the x conflict.
  const Cube a = Cube::parse("11-", "1");
  const Cube b = Cube::parse("0-1", "1");
  const Cube c = a.consensus(b);
  EXPECT_FALSE(c.empty());
  EXPECT_EQ(c.input(0), Literal::kDontCare);
  EXPECT_EQ(c.input(1), Literal::kOne);
  EXPECT_EQ(c.input(2), Literal::kOne);
}

TEST(CubeTest, ConsensusAtDistanceTwoIsEmpty) {
  const Cube a = Cube::parse("11", "1");
  const Cube b = Cube::parse("00", "1");
  EXPECT_TRUE(a.consensus(b).empty());
}

TEST(CubeTest, ConsensusOnOutputPartUnionsOutputs) {
  const Cube a = Cube::parse("1-", "10");
  const Cube b = Cube::parse("1-", "01");
  const Cube c = a.consensus(b);
  EXPECT_FALSE(c.empty());
  EXPECT_TRUE(c.output(0));
  EXPECT_TRUE(c.output(1));
  EXPECT_EQ(c.input(0), Literal::kOne);
}

TEST(CubeTest, CofactorAgainstLiteralCube) {
  // (x0 x̄1) cofactor (x0) = x̄1.
  const Cube a = Cube::parse("10-", "1");
  Cube p = Cube::universe(3, 1);
  p.set_input(0, Literal::kOne);
  const Cube cf = a.cofactor(p);
  EXPECT_EQ(cf.input(0), Literal::kDontCare);
  EXPECT_EQ(cf.input(1), Literal::kZero);
  EXPECT_EQ(cf.input(2), Literal::kDontCare);
}

TEST(CubeTest, CoversMintermRespectsLiterals) {
  const Cube c = Cube::parse("10-", "1");
  // minterm bits: bit0=x0, bit1=x1, bit2=x2.
  EXPECT_TRUE(c.covers_minterm(0b001, 0));   // x0=1, x1=0, x2=0
  EXPECT_TRUE(c.covers_minterm(0b101, 0));   // x2 free
  EXPECT_FALSE(c.covers_minterm(0b011, 0));  // x1 must be 0
  EXPECT_FALSE(c.covers_minterm(0b000, 0));  // x0 must be 1
}

TEST(CubeTest, CoversMintermFalseForUnassertedOutput) {
  const Cube c = Cube::parse("1-", "01");
  EXPECT_FALSE(c.covers_minterm(0b01, 0));
  EXPECT_TRUE(c.covers_minterm(0b01, 1));
}

TEST(CubeTest, EqualityAndOrdering) {
  const Cube a = Cube::parse("10", "1");
  const Cube b = Cube::parse("10", "1");
  const Cube c = Cube::parse("01", "1");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(Cube::lexicographic_less(a, c) || Cube::lexicographic_less(c, a));
}

TEST(CubeTest, WideCubesSpanMultipleWords) {
  // 40 inputs -> 80 input bits + outputs straddle word boundaries.
  Cube c(40, 8);
  c.set_output(5, true);
  c.set_input(31, Literal::kZero);
  c.set_input(32, Literal::kOne);
  c.set_input(39, Literal::kZero);
  EXPECT_EQ(c.input(31), Literal::kZero);
  EXPECT_EQ(c.input(32), Literal::kOne);
  EXPECT_EQ(c.input(39), Literal::kZero);
  EXPECT_TRUE(c.output(5));
  EXPECT_FALSE(c.output(4));
  EXPECT_EQ(c.input_literal_count(), 3);

  Cube d(40, 8);
  d.set_output(5, true);
  d.set_input(31, Literal::kOne);
  EXPECT_EQ(c.distance(d), 1);
  d.set_input(39, Literal::kOne);
  EXPECT_EQ(c.distance(d), 2);
}

TEST(CubeTest, ShapeMismatchRejected) {
  const Cube a = Cube::parse("10", "1");
  const Cube b = Cube::parse("101", "1");
  EXPECT_THROW(a.distance(b), Error);
  EXPECT_THROW(a.contains(b), Error);
}

// ---------------------------------------------------------------------------
// Multi-word cubes: every word-parallel operation against a reference
// built part by part from input(i) and output(j).
// ---------------------------------------------------------------------------

struct Shape {
  int inputs;
  int outputs;
};

// Input parts spanning words, output parts straddling a word boundary
// (30x10: bits 60-69; 16x48: 32-79; 33x31: 66-96), three words (70x3),
// and one shape wider than Cube::kInlineWords words (100x20, 220 bits).
constexpr Shape kWideShapes[] = {{30, 10}, {40, 3}, {70, 3},
                                 {16, 48}, {33, 31}, {100, 20}};

/// A random cube; `empty_rate` of its input parts are 00.
Cube random_cube(Rng& rng, Shape shape, double empty_rate = 0.0) {
  Cube c(shape.inputs, shape.outputs);
  for (int i = 0; i < shape.inputs; ++i) {
    if (rng.next_bool(empty_rate)) {
      c.set_input(i, Literal::kEmpty);
      continue;
    }
    const auto r = rng.next_below(3);
    c.set_input(i, r == 0 ? Literal::kZero : r == 1 ? Literal::kOne : Literal::kDontCare);
  }
  for (int j = 0; j < shape.outputs; ++j) {
    c.set_output(j, rng.next_bool(0.3));
  }
  return c;
}

/// `b` derived from `a` by a few random part edits, so that pairs meet,
/// contain each other and sit at distance 1 often enough.
Cube nearby_cube(Rng& rng, const Cube& a) {
  Cube b = a;
  const int edits = static_cast<int>(rng.next_below(4));
  for (int e = 0; e < edits; ++e) {
    if (rng.next_bool(0.8)) {
      const int i = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(a.num_inputs())));
      b.set_input(i, static_cast<Literal>(1 + rng.next_below(3)));
    } else {
      const int j = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(a.num_outputs())));
      b.set_output(j, !b.output(j));
    }
  }
  return b;
}

int part(const Cube& c, int i) { return static_cast<int>(c.input(i)); }

int ref_distance(const Cube& a, const Cube& b) {
  int d = 0;
  for (int i = 0; i < a.num_inputs(); ++i) {
    d += (part(a, i) & part(b, i)) == 0;
  }
  bool meet = false;
  for (int j = 0; j < a.num_outputs(); ++j) {
    meet = meet || (a.output(j) && b.output(j));
  }
  return d + (meet ? 0 : 1);
}

bool ref_input_contains(const Cube& a, const Cube& b) {
  for (int i = 0; i < a.num_inputs(); ++i) {
    if ((part(a, i) & part(b, i)) != part(b, i)) return false;
  }
  return true;
}

bool ref_contains(const Cube& a, const Cube& b) {
  for (int j = 0; j < a.num_outputs(); ++j) {
    if (b.output(j) && !a.output(j)) return false;
  }
  return ref_input_contains(a, b);
}

/// The cube's words, assembled from the accessors.
std::vector<std::uint64_t> ref_words(const Cube& c) {
  const int bits = 2 * c.num_inputs() + c.num_outputs();
  std::vector<std::uint64_t> words(static_cast<std::size_t>((bits + 63) / 64), 0);
  const auto set = [&](int bit) {
    words[static_cast<std::size_t>(bit / 64)] |= std::uint64_t{1} << (bit % 64);
  };
  for (int i = 0; i < c.num_inputs(); ++i) {
    if (part(c, i) & 1) set(2 * i);
    if (part(c, i) & 2) set(2 * i + 1);
  }
  for (int j = 0; j < c.num_outputs(); ++j) {
    if (c.output(j)) set(2 * c.num_inputs() + j);
  }
  return words;
}

/// Part-wise reference for cofactor, intersect, supercube and consensus.
Cube ref_cofactor(const Cube& a, const Cube& p) {
  Cube r(a.num_inputs(), a.num_outputs());
  for (int i = 0; i < a.num_inputs(); ++i) {
    r.set_input(i, static_cast<Literal>((part(a, i) | ~part(p, i)) & 3));
  }
  for (int j = 0; j < a.num_outputs(); ++j) {
    r.set_output(j, a.output(j) || !p.output(j));
  }
  return r;
}

Cube ref_combine(const Cube& a, const Cube& b, bool with_and) {
  Cube r(a.num_inputs(), a.num_outputs());
  for (int i = 0; i < a.num_inputs(); ++i) {
    r.set_input(i, static_cast<Literal>(with_and ? part(a, i) & part(b, i)
                                                 : part(a, i) | part(b, i)));
  }
  for (int j = 0; j < a.num_outputs(); ++j) {
    r.set_output(j, with_and ? a.output(j) && b.output(j) : a.output(j) || b.output(j));
  }
  return r;
}

Cube ref_consensus(const Cube& a, const Cube& b) {
  Cube r = ref_combine(a, b, true);
  if (ref_distance(a, b) != 1) {
    for (int i = 0; i < a.num_inputs(); ++i) r.set_input(i, Literal::kEmpty);
    for (int j = 0; j < a.num_outputs(); ++j) r.set_output(j, false);
    return r;
  }
  for (int i = 0; i < a.num_inputs(); ++i) {
    if (part(r, i) == 0) {
      r.set_input(i, static_cast<Literal>(part(a, i) | part(b, i)));
      return r;
    }
  }
  for (int j = 0; j < a.num_outputs(); ++j) {
    r.set_output(j, a.output(j) || b.output(j));
  }
  return r;
}

TEST(CubeWideTest, PairOperationsMatchPartwiseReference) {
  Rng rng(0x5EED);
  for (const Shape shape : kWideShapes) {
    for (int trial = 0; trial < 300; ++trial) {
      const Cube a = random_cube(rng, shape, trial % 3 == 0 ? 0.01 : 0.0);
      const Cube b = nearby_cube(rng, a);
      const std::string what = std::to_string(shape.inputs) + "x" +
                               std::to_string(shape.outputs) + " trial " +
                               std::to_string(trial);
      ASSERT_EQ(a.distance(b), ref_distance(a, b)) << what;
      EXPECT_EQ(a.intersects(b), ref_distance(a, b) == 0) << what;
      EXPECT_EQ(a.contains(b), ref_contains(a, b)) << what;
      EXPECT_EQ(b.contains(a), ref_contains(b, a)) << what;
      EXPECT_EQ(a.input_contains(b), ref_input_contains(a, b)) << what;
      EXPECT_EQ(a.intersect(b), ref_combine(a, b, true)) << what;
      EXPECT_EQ(a.supercube(b), ref_combine(a, b, false)) << what;
      EXPECT_EQ(a.consensus(b), ref_consensus(a, b)) << what;
      EXPECT_EQ(a.cofactor(b), ref_cofactor(a, b)) << what;
      EXPECT_EQ(Cube::lexicographic_less(a, b), ref_words(a) < ref_words(b)) << what;
      EXPECT_EQ(Cube::lexicographic_less(b, a), ref_words(b) < ref_words(a)) << what;
      EXPECT_EQ(a == b, ref_words(a) == ref_words(b)) << what;
    }
  }
}

TEST(CubeWideTest, CountsMatchPartwiseReference) {
  Rng rng(0xC0DE);
  for (const Shape shape : kWideShapes) {
    for (int trial = 0; trial < 200; ++trial) {
      const Cube c = random_cube(rng, shape, trial % 2 == 0 ? 0.02 : 0.0);
      int literals = 0;
      bool input_empty = false;
      for (int i = 0; i < shape.inputs; ++i) {
        literals += part(c, i) == 1 || part(c, i) == 2;
        input_empty = input_empty || part(c, i) == 0;
      }
      int outputs = 0;
      for (int j = 0; j < shape.outputs; ++j) {
        outputs += c.output(j);
      }
      EXPECT_EQ(c.input_literal_count(), literals);
      EXPECT_EQ(c.output_count(), outputs);
      EXPECT_EQ(c.output_empty(), outputs == 0);
      EXPECT_EQ(c.input_empty(), input_empty);
      EXPECT_EQ(std::vector<std::uint64_t>(c.words().begin(), c.words().end()),
                ref_words(c));
    }
  }
}

TEST(CubeWideTest, InputPartCopiesMatchPartwiseReference) {
  Rng rng(0xFACE);
  for (const Shape shape : kWideShapes) {
    for (int trial = 0; trial < 100; ++trial) {
      const Cube src = random_cube(rng, shape);
      // Into a single-output cube (a different word count for most
      // shapes) and back.
      Cube single = Cube::universe(shape.inputs, 1);
      single.set_inputs_from(src);
      Cube back = random_cube(rng, shape);
      const Cube before = back;
      back.set_inputs_from(single);
      Cube meet = before;
      meet.intersect_inputs(src);
      for (int i = 0; i < shape.inputs; ++i) {
        EXPECT_EQ(single.input(i), src.input(i));
        EXPECT_EQ(back.input(i), src.input(i));
        EXPECT_EQ(part(meet, i), part(before, i) & part(src, i));
      }
      EXPECT_TRUE(single.output(0));
      for (int j = 0; j < shape.outputs; ++j) {
        EXPECT_EQ(back.output(j), before.output(j));
        EXPECT_EQ(meet.output(j), before.output(j));
      }
    }
  }
}

TEST(CubeWideTest, CopiesAndMovesKeepTheWords) {
  // Inline (70x3, three words) and heap (100x20) storage, assigned
  // across shapes both ways.
  Rng rng(0xB00C);
  const Cube inline_cube = random_cube(rng, {70, 3});
  const Cube heap_cube = random_cube(rng, {100, 20});
  Cube a = inline_cube;
  a = heap_cube;
  EXPECT_EQ(a, heap_cube);
  a = inline_cube;
  EXPECT_EQ(a, inline_cube);
  Cube moved = std::move(a);
  EXPECT_EQ(moved, inline_cube);
  Cube heap_copy = heap_cube;
  Cube heap_moved = std::move(heap_copy);
  EXPECT_EQ(heap_moved, heap_cube);
  heap_copy = heap_cube;  // a moved-from cube can be assigned again
  EXPECT_EQ(heap_copy, heap_cube);
  heap_moved = std::move(heap_copy);
  EXPECT_EQ(heap_moved, heap_cube);
}

}  // namespace
}  // namespace ambit::logic
