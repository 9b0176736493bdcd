// Tests for EXPAND / IRREDUNDANT / REDUCE and the full Espresso loop.
//
// The battery cross-checks every transformation against exhaustive
// truth tables: the minimized cover must stay inside onset ∪ dcset and
// cover all of onset. Parameterized sweeps run the full loop over a
// grid of (inputs, outputs, cube count) with random functions.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "espresso/espresso.h"
#include "espresso/expand.h"
#include "espresso/irredundant.h"
#include "espresso/reduce.h"
#include "espresso/unate.h"
#include "logic/pla_io.h"
#include "logic/synth_bench.h"
#include "logic/truth_table.h"
#include "util/rng.h"

namespace ambit::espresso {
namespace {

using logic::Cover;
using logic::Cube;
using logic::Literal;
using logic::TruthTable;

Cover random_multi_cover(ambit::Rng& rng, int ni, int no, int cubes) {
  Cover f(ni, no);
  for (int k = 0; k < cubes; ++k) {
    Cube c(ni, no);
    for (int i = 0; i < ni; ++i) {
      const auto r = rng.next_below(4);
      c.set_input(i, r == 0   ? Literal::kZero
                     : r == 1 ? Literal::kOne
                              : Literal::kDontCare);
    }
    // At least one output asserted.
    c.set_output(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(no))),
                 true);
    for (int j = 0; j < no; ++j) {
      if (rng.next_bool(0.25)) {
        c.set_output(j, true);
      }
    }
    if (!c.empty()) {
      f.add(c);
    }
  }
  if (f.empty()) {
    Cube c = Cube::universe(ni, no);
    f.add(c);
  }
  return f;
}

/// (onset ∖ dcset) ⊆ result ⊆ onset ∪ dcset, exhaustively. Minterms in
/// both onset and dcset are free: the don't-care wins (Espresso
/// semantics), so the minimizer may keep or drop them.
void expect_valid_minimization(const Cover& onset, const Cover& dcset,
                               const Cover& result) {
  const TruthTable t_on = TruthTable::from_cover(onset);
  const TruthTable t_dc = TruthTable::from_cover(dcset);
  const TruthTable t_res = TruthTable::from_cover(result);
  for (int j = 0; j < onset.num_outputs(); ++j) {
    for (std::uint64_t m = 0; m < t_on.num_minterms(); ++m) {
      if (t_on.get(m, j) && !t_dc.get(m, j)) {
        ASSERT_TRUE(t_res.get(m, j))
            << "minterm " << m << " output " << j << " lost";
      }
      if (t_res.get(m, j)) {
        ASSERT_TRUE(t_on.get(m, j) || t_dc.get(m, j))
            << "minterm " << m << " output " << j << " gained";
      }
    }
  }
}

TEST(ExpandTest, SingleCubeGrowsToPrime) {
  // f = x0x1 + x0x̄1 should expand a minterm-ish cube to x0.
  const Cover f = Cover::parse(2, 1, {"11 1", "10 1"});
  const Cover off = offset(f, Cover(2, 1));
  const Cube prime = expand_cube(f[0], off);
  EXPECT_EQ(prime.input(0), Literal::kOne);
  EXPECT_EQ(prime.input(1), Literal::kDontCare);
}

TEST(ExpandTest, ExpansionBlockedByOffset) {
  // EXOR cubes are already prime: no literal can lift.
  const Cover f = Cover::parse(2, 1, {"10 1", "01 1"});
  const Cover off = offset(f, Cover(2, 1));
  for (const Cube& c : f) {
    EXPECT_EQ(expand_cube(c, off), c);
  }
}

TEST(ExpandTest, CoverShrinksWhenCubesAbsorbed) {
  const Cover f = Cover::parse(2, 1, {"11 1", "10 1"});
  const Cover off = offset(f, Cover(2, 1));
  const Cover e = expand(f, off);
  EXPECT_EQ(e.size(), 1u);
  EXPECT_TRUE(logic::equivalent(e, f));
}

TEST(ExpandTest, OutputRaisingSharesProducts) {
  // Same product feeds both outputs; expansion should raise the
  // missing output bit.
  const Cover f = Cover::parse(2, 2, {"11 10", "11 01"});
  const Cover off = offset(f, Cover(2, 2));
  const Cover e = expand(f, off);
  EXPECT_EQ(e.size(), 1u);
  EXPECT_EQ(e[0].output_count(), 2);
  EXPECT_TRUE(logic::equivalent(e, f));
}

TEST(ExpandTest, PrimenessOnRandomCovers) {
  ambit::Rng rng(2020);
  for (int trial = 0; trial < 25; ++trial) {
    const int ni = 3 + static_cast<int>(rng.next_below(4));
    const Cover f = random_multi_cover(rng, ni, 1, 6);
    const Cover off = offset(f, Cover(ni, 1));
    const Cover e = expand(f, off);
    EXPECT_TRUE(logic::equivalent(e, f));
    // Every cube must be prime: raising any literal hits the offset.
    for (const Cube& c : e) {
      for (int i = 0; i < ni; ++i) {
        const Literal lit = c.input(i);
        if (lit != Literal::kZero && lit != Literal::kOne) {
          continue;
        }
        Cube raised = c;
        raised.set_input(i, Literal::kDontCare);
        bool hits_offset = false;
        for (const Cube& r : off) {
          if (raised.intersects(r)) {
            hits_offset = true;
            break;
          }
        }
        EXPECT_TRUE(hits_offset)
            << "cube " << c.to_string() << " not prime at var " << i;
      }
    }
  }
}

TEST(IrredundantTest, DropsAbsorbedCube) {
  // x0 + x0x1: second cube removable only via semantic coverage.
  const Cover f = Cover::parse(2, 1, {"1- 1", "11 1"});
  const Cover r = irredundant(f, Cover(2, 1));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(logic::equivalent(r, f));
}

TEST(IrredundantTest, DropsJointlyCoveredCube) {
  // x0x1 + x̄0 x2 + x1x2: the consensus term x1x2 is redundant.
  const Cover f = Cover::parse(3, 1, {"11- 1", "0-1 1", "-11 1"});
  const Cover r = irredundant(f, Cover(3, 1));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(logic::equivalent(r, f));
}

TEST(IrredundantTest, KeepsEssentialCubes) {
  const Cover f = Cover::parse(2, 1, {"10 1", "01 1"});
  const Cover r = irredundant(f, Cover(2, 1));
  EXPECT_EQ(r.size(), 2u);
}

TEST(IrredundantTest, DontCareEnablesRemoval) {
  const Cover f = Cover::parse(2, 1, {"1- 1", "01 1"});
  const Cover d = Cover::parse(2, 1, {"01 1"});
  // With the 01 minterm a don't-care, the second cube is redundant.
  const Cover r = irredundant(f, d);
  EXPECT_EQ(r.size(), 1u);
}

TEST(IrredundantTest, EquivalenceOnRandomCovers) {
  ambit::Rng rng(3030);
  for (int trial = 0; trial < 25; ++trial) {
    const int ni = 3 + static_cast<int>(rng.next_below(4));
    const int no = 1 + static_cast<int>(rng.next_below(3));
    const Cover f = random_multi_cover(rng, ni, no, 8);
    const Cover r = irredundant(f, Cover(ni, no));
    EXPECT_LE(r.size(), f.size());
    EXPECT_TRUE(logic::equivalent(r, f));
  }
}

TEST(ReduceTest, ShrinksOverlappingPrime) {
  // x0 + x1 with both primes; reducing one of them must keep function
  // intact when followed by nothing (reduce preserves equivalence).
  const Cover f = Cover::parse(2, 1, {"1- 1", "-1 1"});
  const Cover r = reduce(f, Cover(2, 1));
  EXPECT_TRUE(logic::equivalent(r, f));
}

TEST(ReduceTest, PreservesFunctionOnRandomCovers) {
  ambit::Rng rng(4040);
  for (int trial = 0; trial < 25; ++trial) {
    const int ni = 3 + static_cast<int>(rng.next_below(4));
    const int no = 1 + static_cast<int>(rng.next_below(3));
    const Cover f = random_multi_cover(rng, ni, no, 8);
    const Cover r = reduce(f, Cover(ni, no));
    EXPECT_TRUE(logic::equivalent(r, f))
        << "f:\n" << f.to_string() << "reduced:\n" << r.to_string();
    EXPECT_LE(r.size(), f.size());
  }
}

TEST(ReduceTest, ReductionIsMaximalWithDontCares) {
  const Cover f = Cover::parse(2, 1, {"1- 1", "-1 1"});
  const Cover d = Cover(2, 1);
  const Cover r = reduce(f, d);
  // Function unchanged even though cubes may have shrunk.
  EXPECT_TRUE(logic::equivalent(r, f));
}

TEST(EspressoTest, ExorIsAlreadyMinimal) {
  const Cover f = Cover::parse(2, 1, {"10 1", "01 1"});
  const auto result = minimize(f);
  EXPECT_EQ(result.cover.size(), 2u);
  EXPECT_TRUE(logic::equivalent(result.cover, f));
}

TEST(EspressoTest, MintermsOfConstantOneCollapse) {
  Cover f(3, 1);
  for (std::uint64_t m = 0; m < 8; ++m) {
    Cube c(3, 1);
    c.set_output(0, true);
    for (int i = 0; i < 3; ++i) {
      c.set_input(i, ((m >> i) & 1) ? Literal::kOne : Literal::kZero);
    }
    f.add(c);
  }
  const auto result = minimize(f);
  EXPECT_EQ(result.cover.size(), 1u);
  EXPECT_EQ(result.cover[0].input_literal_count(), 0);
}

TEST(EspressoTest, ClassicTrimExample) {
  // f = x̄0x̄1 + x0x1 + x0x̄1 = x0 + x̄1 : 2 cubes.
  const Cover f = Cover::parse(2, 1, {"00 1", "11 1", "10 1"});
  const auto result = minimize(f);
  EXPECT_EQ(result.cover.size(), 2u);
  EXPECT_TRUE(logic::equivalent(result.cover, f));
}

TEST(EspressoTest, DontCaresImproveCover) {
  // EXOR with one side made don't-care becomes a single cube.
  const Cover f = Cover::parse(2, 1, {"10 1"});
  const Cover d = Cover::parse(2, 1, {"01 1", "11 1"});
  const auto result = minimize(f, d);
  EXPECT_EQ(result.cover.size(), 1u);
  expect_valid_minimization(f, d, result.cover);
}

TEST(EspressoTest, MultiOutputSharingFindsCommonProduct) {
  // out0 = a·b, out1 = a·b + c; the a·b product must be shared.
  const Cover f = Cover::parse(3, 2, {"11- 10", "11- 01", "--1 01"});
  const auto result = minimize(f);
  EXPECT_EQ(result.cover.size(), 2u);
  EXPECT_TRUE(logic::equivalent(result.cover, f));
}

TEST(EspressoTest, ReduceEscapesLocalMinimum) {
  // A cover where plain expand+irredundant is stuck but
  // reduce->expand finds a smaller solution. Classic example:
  // f on 4 vars built from a suboptimal prime selection.
  const Cover f = Cover::parse(4, 1,
                               {"1-00 1", "-100 1", "1--1 1", "011- 1",
                                "0-11 1", "-011 1"});
  const EspressoOptions with_reduce{.max_loops = 16};
  const EspressoOptions without_reduce{.max_loops = 0};
  const auto full = minimize(f, with_reduce);
  const auto single_pass = minimize(f, without_reduce);
  EXPECT_TRUE(logic::equivalent(full.cover, f));
  EXPECT_TRUE(logic::equivalent(single_pass.cover, f));
  EXPECT_LE(full.cover.size(), single_pass.cover.size());
}

TEST(EspressoTest, StatsArePopulated) {
  const Cover f = Cover::parse(2, 1, {"11 1", "10 1", "01 1"});
  const auto result = minimize(f);
  EXPECT_EQ(result.stats.initial_cubes, 3u);
  EXPECT_GE(result.stats.after_first_expand, result.stats.final_cubes);
  EXPECT_EQ(result.stats.final_cubes, result.cover.size());
}

TEST(EspressoTest, EmptyOnsetStaysEmpty) {
  const auto result = minimize(Cover(3, 2));
  EXPECT_TRUE(result.cover.empty());
}

TEST(EspressoTest, IdempotentOnItsOwnOutput) {
  ambit::Rng rng(6060);
  for (int trial = 0; trial < 10; ++trial) {
    const Cover f = random_multi_cover(rng, 5, 2, 10);
    const auto once = minimize(f);
    const auto twice = minimize(once.cover);
    EXPECT_EQ(twice.cover.size(), once.cover.size());
    EXPECT_TRUE(logic::equivalent(twice.cover, once.cover));
  }
}

// ---------------------------------------------------------------------------
// Parameterized sweep: full loop on random functions over a shape grid.
// ---------------------------------------------------------------------------

using ShapeParam = std::tuple<int, int, int>;  // inputs, outputs, cubes

class EspressoSweep : public testing::TestWithParam<ShapeParam> {};

TEST_P(EspressoSweep, MinimizesAndPreservesFunction) {
  const auto [ni, no, cubes] = GetParam();
  ambit::Rng rng(static_cast<std::uint64_t>(ni * 1000 + no * 100 + cubes));
  for (int trial = 0; trial < 5; ++trial) {
    const Cover f = random_multi_cover(rng, ni, no, cubes);
    const auto result = minimize(f);
    ASSERT_TRUE(logic::equivalent(result.cover, f))
        << "shape (" << ni << "," << no << "," << cubes << ") trial " << trial;
    EXPECT_LE(result.cover.size(), f.size());
  }
}

TEST_P(EspressoSweep, RespectsDontCares) {
  const auto [ni, no, cubes] = GetParam();
  ambit::Rng rng(static_cast<std::uint64_t>(ni * 999 + no * 55 + cubes + 7));
  for (int trial = 0; trial < 3; ++trial) {
    const Cover f = random_multi_cover(rng, ni, no, cubes);
    const Cover d = random_multi_cover(rng, ni, no, cubes / 2 + 1);
    const auto result = minimize(f, d);
    expect_valid_minimization(f, d, result.cover);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, EspressoSweep,
    testing::Values(ShapeParam{3, 1, 4}, ShapeParam{4, 1, 6},
                    ShapeParam{5, 1, 10}, ShapeParam{6, 1, 14},
                    ShapeParam{7, 1, 18}, ShapeParam{4, 2, 6},
                    ShapeParam{5, 3, 10}, ShapeParam{6, 2, 12},
                    ShapeParam{7, 4, 16}, ShapeParam{8, 2, 20},
                    ShapeParam{9, 1, 24}, ShapeParam{10, 3, 20}),
    [](const testing::TestParamInfo<ShapeParam>& info) {
      std::string name = "i";
      name += std::to_string(std::get<0>(info.param));
      name += "_o";
      name += std::to_string(std::get<1>(info.param));
      name += "_c";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

// ---------------------------------------------------------------------------
// Golden covers (tests/data/espresso_golden/, captured from a build by
// scripts/capture_espresso_golden.py): minimize() must reproduce each
// expected cover cube for cube, in order. The function alone would not
// pin it: every decision (variable choice and its tie-breaks, blocker
// slack, merge order, survivor order, the canonical sort) shows in the
// cubes and their order.
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

struct Golden {
  std::string name;
  logic::PlaFile input;
  Cover expected{0, 1};
};

std::vector<Golden> load_goldens() {
  const fs::path dir = fs::path(AMBIT_TEST_DATA_DIR) / "espresso_golden";
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    const std::string suffix = ".in.pla";
    if (file.size() > suffix.size() &&
        file.compare(file.size() - suffix.size(), suffix.size(), suffix) == 0) {
      names.push_back(file.substr(0, file.size() - suffix.size()));
    }
  }
  std::sort(names.begin(), names.end());
  std::vector<Golden> goldens;
  for (const std::string& name : names) {
    Golden g;
    g.name = name;
    g.input = logic::read_pla_file((dir / (name + ".in.pla")).string());
    g.expected = logic::read_pla_file((dir / (name + ".out.pla")).string()).onset;
    goldens.push_back(std::move(g));
  }
  return goldens;
}

/// Empty when `actual` is the golden cover; otherwise the first
/// difference.
std::string golden_mismatch(const Golden& g, const Cover& actual) {
  if (actual.num_inputs() != g.expected.num_inputs() ||
      actual.num_outputs() != g.expected.num_outputs()) {
    return g.name + ": shape differs";
  }
  for (std::size_t i = 0; i < std::min(actual.size(), g.expected.size()); ++i) {
    if (!(actual[i] == g.expected[i])) {
      return g.name + ": cube " + std::to_string(i) + " is " +
             actual[i].to_string() + ", golden " + g.expected[i].to_string();
    }
  }
  if (actual.size() != g.expected.size()) {
    return g.name + ": " + std::to_string(actual.size()) + " cubes, golden " +
           std::to_string(g.expected.size());
  }
  return "";
}

TEST(EspressoGoldenTest, MinimizeReproducesEveryGoldenCover) {
  const std::vector<Golden> goldens = load_goldens();
  // t2, apla, max46, heavy, 40 sweep covers and 5 wide shapes.
  ASSERT_EQ(goldens.size(), 49u);
  for (const Golden& g : goldens) {
    const Cover actual = minimize(g.input.onset, g.input.dcset).cover;
    EXPECT_EQ(golden_mismatch(g, actual), "");
  }
}

TEST(EspressoGoldenTest, HeavyIsTheBenchmarkCover) {
  // perfbench LOADs generate_cover({16, 32, 224, 5}, 11); the golden
  // input must stay that cover.
  const std::vector<Golden> goldens = load_goldens();
  const auto heavy = std::find_if(goldens.begin(), goldens.end(),
                                  [](const Golden& g) { return g.name == "heavy"; });
  ASSERT_NE(heavy, goldens.end());
  EXPECT_EQ(heavy->input.onset, logic::generate_cover({16, 32, 224, 5}, 11));
  EXPECT_TRUE(heavy->input.dcset.empty());
}

TEST(EspressoGoldenTest, OffsetCubeCountsArePinned) {
  // EXPAND's slack counts run over the OFF-set's cube list, so its size
  // is part of what the goldens depend on. The four circuits of
  // perfbench's LOAD round sum to its load.offset_cubes (37,647).
  const std::vector<std::pair<std::string, std::size_t>> pinned = {
      {"heavy", 36093}, {"t2", 1240}, {"apla", 230}, {"max46", 84}};
  const std::vector<Golden> goldens = load_goldens();
  for (const auto& [name, cubes] : pinned) {
    const auto g = std::find_if(goldens.begin(), goldens.end(),
                                [&](const Golden& x) { return x.name == name; });
    ASSERT_NE(g, goldens.end()) << name;
    EXPECT_EQ(offset(g->input.onset, g->input.dcset).size(), cubes) << name;
  }
}

TEST(EspressoGoldenTest, ConcurrentMinimizationMatchesGoldens) {
  // Concurrent LOADs minimize on several pool workers at once, so
  // Espresso must keep no shared scratch state; under TSan a shared
  // buffer shows up here as a race, and anywhere as a wrong cover.
  const std::vector<Golden> goldens = load_goldens();
  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> mismatches(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&goldens, &mismatches, t] {
      // Each thread starts at a different golden, so different phases
      // overlap.
      for (std::size_t k = 0; k < goldens.size(); ++k) {
        const Golden& g = goldens[(k + static_cast<std::size_t>(t) * 13) %
                                  goldens.size()];
        const Cover actual = minimize(g.input.onset, g.input.dcset).cover;
        if (std::string m = golden_mismatch(g, actual); !m.empty()) {
          mismatches[static_cast<std::size_t>(t)].push_back(std::move(m));
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(mismatches[static_cast<std::size_t>(t)].empty())
        << "thread " << t << ": "
        << mismatches[static_cast<std::size_t>(t)].front();
  }
}

}  // namespace
}  // namespace ambit::espresso
