// Property-based suites: algebraic laws of the cube/cover algebra, the
// mapping inverse of the GNOR PLA, and relational invariants of the
// crossbar — each checked over randomized TEST_P sweeps.
#include <gtest/gtest.h>

#include <tuple>

#include "core/classical_pla.h"
#include "core/crossbar.h"
#include "core/fabric.h"
#include "core/gnor_pla.h"
#include "core/wpla.h"
#include "espresso/unate.h"
#include "logic/pattern_batch.h"
#include "logic/truth_table.h"
#include "simulate/sim_evaluator.h"
#include "tech/technology.h"
#include "util/rng.h"

namespace ambit {
namespace {

using logic::Cover;
using logic::Cube;
using logic::Literal;
using logic::TruthTable;

Cube random_cube(Rng& rng, int ni, int no) {
  Cube c(ni, no);
  for (int i = 0; i < ni; ++i) {
    const auto r = rng.next_below(4);
    c.set_input(i, r == 0   ? Literal::kZero
                   : r == 1 ? Literal::kOne
                            : Literal::kDontCare);
  }
  c.set_output(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(no))),
               true);
  for (int j = 0; j < no; ++j) {
    if (rng.next_bool(0.3)) {
      c.set_output(j, true);
    }
  }
  return c;
}

class CubeAlgebraLaws : public testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<std::uint64_t>(GetParam()) * 7919 + 13};
};

TEST_P(CubeAlgebraLaws, IntersectionCommutativeAssociativeIdempotent) {
  for (int t = 0; t < 40; ++t) {
    const int ni = 2 + static_cast<int>(rng_.next_below(10));
    const Cube a = random_cube(rng_, ni, 2);
    const Cube b = random_cube(rng_, ni, 2);
    const Cube c = random_cube(rng_, ni, 2);
    EXPECT_EQ(a.intersect(b), b.intersect(a));
    EXPECT_EQ(a.intersect(b).intersect(c), a.intersect(b.intersect(c)));
    EXPECT_EQ(a.intersect(a), a);
  }
}

TEST_P(CubeAlgebraLaws, SupercubeCommutativeAbsorbing) {
  for (int t = 0; t < 40; ++t) {
    const int ni = 2 + static_cast<int>(rng_.next_below(10));
    const Cube a = random_cube(rng_, ni, 2);
    const Cube b = random_cube(rng_, ni, 2);
    EXPECT_EQ(a.supercube(b), b.supercube(a));
    EXPECT_TRUE(a.supercube(b).contains(a));
    EXPECT_TRUE(a.supercube(b).contains(b));
    EXPECT_EQ(a.supercube(a), a);
  }
}

TEST_P(CubeAlgebraLaws, ContainmentOrderRelation) {
  for (int t = 0; t < 40; ++t) {
    const int ni = 2 + static_cast<int>(rng_.next_below(10));
    const Cube a = random_cube(rng_, ni, 2);
    const Cube b = random_cube(rng_, ni, 2);
    const Cube meet = a.intersect(b);
    // meet <= a, meet <= b; and if a <= b and b <= a then a == b.
    EXPECT_TRUE(a.contains(meet));
    EXPECT_TRUE(b.contains(meet));
    if (a.contains(b) && b.contains(a)) {
      EXPECT_EQ(a, b);
    }
    // Containment implies intersection everywhere (distance 0) unless
    // the contained cube is empty.
    if (a.contains(b) && !b.empty()) {
      EXPECT_EQ(a.distance(b), 0);
    }
  }
}

TEST_P(CubeAlgebraLaws, DistanceSymmetricAndZeroIffIntersect) {
  for (int t = 0; t < 40; ++t) {
    const int ni = 2 + static_cast<int>(rng_.next_below(10));
    const Cube a = random_cube(rng_, ni, 2);
    const Cube b = random_cube(rng_, ni, 2);
    EXPECT_EQ(a.distance(b), b.distance(a));
    EXPECT_EQ(a.distance(b) == 0, !a.intersect(b).empty());
  }
}

TEST_P(CubeAlgebraLaws, CofactorAgainstUniverseIsIdentity) {
  for (int t = 0; t < 40; ++t) {
    const int ni = 2 + static_cast<int>(rng_.next_below(10));
    const Cube a = random_cube(rng_, ni, 2);
    EXPECT_EQ(a.cofactor(Cube::universe(ni, 2)), a);
  }
}

TEST_P(CubeAlgebraLaws, ConsensusIsCoveredByUnionSemantically) {
  for (int t = 0; t < 25; ++t) {
    const int ni = 2 + static_cast<int>(rng_.next_below(6));
    Cube a = random_cube(rng_, ni, 1);
    Cube b = random_cube(rng_, ni, 1);
    a.set_output(0, true);
    b.set_output(0, true);
    const Cube cons = a.consensus(b);
    if (cons.empty()) {
      continue;
    }
    Cover pair(ni, 1);
    pair.add(a);
    pair.add(b);
    Cover cons_cover(ni, 1);
    cons_cover.add(cons);
    EXPECT_TRUE(logic::contained_in(cons_cover, pair))
        << "consensus escapes a ∪ b";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CubeAlgebraLaws, testing::Values(1, 2, 3, 4),
                         [](const testing::TestParamInfo<int>& info) {
                           return "seed" + std::to_string(info.param);
                         });

class CoverSemanticsLaws : public testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<std::uint64_t>(GetParam()) * 104729 + 7};

  Cover random_cover(int ni, int cubes) {
    Cover f(ni, 1);
    for (int k = 0; k < cubes; ++k) {
      Cube c = random_cube(rng_, ni, 1);
      c.set_output(0, true);
      f.add(c);
    }
    return f;
  }
};

TEST_P(CoverSemanticsLaws, DeMorganOverUnion) {
  for (int t = 0; t < 10; ++t) {
    const int ni = 3 + static_cast<int>(rng_.next_below(4));
    const Cover f = random_cover(ni, 5);
    const Cover g = random_cover(ni, 5);
    Cover fg = f;
    fg.append(g);
    // (f ∪ g)' == f' ∩ g' — check via truth tables.
    const TruthTable lhs =
        TruthTable::from_cover(espresso::complement(fg));
    const TruthTable tf =
        TruthTable::from_cover(espresso::complement(f));
    const TruthTable tg =
        TruthTable::from_cover(espresso::complement(g));
    for (std::uint64_t m = 0; m < lhs.num_minterms(); ++m) {
      EXPECT_EQ(lhs.get(m, 0), tf.get(m, 0) && tg.get(m, 0));
    }
  }
}

TEST_P(CoverSemanticsLaws, CofactorShannonDecomposition) {
  // f == x·f_x + x̄·f_x̄ for every variable, semantically.
  for (int t = 0; t < 10; ++t) {
    const int ni = 3 + static_cast<int>(rng_.next_below(4));
    const Cover f = random_cover(ni, 6);
    for (int x = 0; x < ni; ++x) {
      Cube hi = Cube::universe(ni, 1);
      hi.set_input(x, Literal::kOne);
      Cube lo = Cube::universe(ni, 1);
      lo.set_input(x, Literal::kZero);
      Cover fx = f.cofactor(hi);
      fx.and_literal(x, true);
      Cover fnx = f.cofactor(lo);
      fnx.and_literal(x, false);
      fx.append(fnx);
      EXPECT_TRUE(logic::equivalent(fx, f)) << "var " << x;
    }
  }
}

TEST_P(CoverSemanticsLaws, SingleCubeContainmentPreservesFunction) {
  for (int t = 0; t < 10; ++t) {
    const int ni = 3 + static_cast<int>(rng_.next_below(4));
    Cover f = random_cover(ni, 8);
    const Cover before = f;
    f.remove_single_cube_contained();
    EXPECT_TRUE(logic::equivalent(f, before));
    f.sort_and_dedup();
    EXPECT_TRUE(logic::equivalent(f, before));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverSemanticsLaws, testing::Values(1, 2, 3),
                         [](const testing::TestParamInfo<int>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(GnorMappingInverse, PlaneConfigRecoversCover) {
  // map_cover is invertible: reading the plane-1 polarities back gives
  // exactly the cover's literals.
  Rng rng(99);
  for (int t = 0; t < 20; ++t) {
    const int ni = 3 + static_cast<int>(rng.next_below(6));
    Cover f(ni, 2);
    for (int k = 0; k < 6; ++k) {
      Cube c = random_cube(rng, ni, 2);
      f.add(c);
    }
    const auto pla = core::GnorPla::map_cover(f);
    for (int k = 0; k < static_cast<int>(f.size()); ++k) {
      for (int i = 0; i < ni; ++i) {
        const auto cell = pla.product_plane().cell(k, i);
        switch (f[static_cast<std::size_t>(k)].input(i)) {
          case Literal::kOne:
            EXPECT_EQ(cell, core::CellConfig::kInvert);
            break;
          case Literal::kZero:
            EXPECT_EQ(cell, core::CellConfig::kPass);
            break;
          default:
            EXPECT_EQ(cell, core::CellConfig::kOff);
            break;
        }
      }
      for (int j = 0; j < 2; ++j) {
        EXPECT_EQ(pla.output_plane().cell(j, k) == core::CellConfig::kPass,
                  f[static_cast<std::size_t>(k)].output(j));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Evaluator law: evaluate_batch ≡ scalar evaluate, pattern for pattern,
// for every circuit type — including batch sizes that do not fill a
// whole 64-bit word.
// ---------------------------------------------------------------------------

using logic::PatternBatch;

/// Draws `count` random patterns and checks the batch path against the
/// scalar path bit-for-bit on the given evaluator.
void expect_batch_matches_scalar(const Evaluator& e, Rng& rng,
                                 std::uint64_t count) {
  PatternBatch batch(e.num_inputs(), count);
  for (std::uint64_t p = 0; p < count; ++p) {
    for (int i = 0; i < e.num_inputs(); ++i) {
      batch.set(p, i, rng.next_bool());
    }
  }
  const PatternBatch out = e.evaluate_batch(batch);
  ASSERT_EQ(out.num_signals(), e.num_outputs());
  ASSERT_EQ(out.num_patterns(), count);
  for (std::uint64_t p = 0; p < count; ++p) {
    const std::vector<bool> scalar = e.evaluate(batch.pattern(p));
    ASSERT_EQ(scalar, out.pattern(p)) << "pattern " << p;
  }
  // Tail padding must stay zero after the kernel's NOR complements.
  for (int j = 0; j < out.num_signals(); ++j) {
    ASSERT_EQ(out.lane(j)[out.words_per_lane() - 1] & ~out.tail_mask(), 0u)
        << "lane " << j << " leaked into the tail";
  }
}

class BatchScalarEquivalence : public testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<std::uint64_t>(GetParam()) * 6151 + 3};

  // Deliberately straddles word boundaries: sub-word, exact word, and
  // word+tail batch sizes.
  static constexpr std::uint64_t kBatchSizes[] = {1, 63, 64, 65, 257};
};

TEST_P(BatchScalarEquivalence, GnorPla) {
  for (int t = 0; t < 8; ++t) {
    const int ni = 2 + static_cast<int>(rng_.next_below(8));
    Cover f(ni, 3);
    for (int k = 0; k < 2 + static_cast<int>(rng_.next_below(8)); ++k) {
      f.add(random_cube(rng_, ni, 3));
    }
    const auto pla = core::GnorPla::map_cover(f);
    for (const std::uint64_t count : kBatchSizes) {
      expect_batch_matches_scalar(pla, rng_, count);
    }
  }
}

TEST_P(BatchScalarEquivalence, ClassicalPla) {
  for (int t = 0; t < 8; ++t) {
    const int ni = 2 + static_cast<int>(rng_.next_below(8));
    Cover f(ni, 3);
    for (int k = 0; k < 2 + static_cast<int>(rng_.next_below(8)); ++k) {
      f.add(random_cube(rng_, ni, 3));
    }
    auto pla = core::ClassicalPla::map_cover(f);
    // Random rails beyond what map_cover builds: a product may end up
    // with both rails of an input (constant 0) or none at all.
    for (int s = 0; s < 6; ++s) {
      pla.set_and_plane(
          static_cast<int>(rng_.next_below(
              static_cast<std::uint64_t>(pla.num_products()))),
          static_cast<int>(rng_.next_below(2 * static_cast<std::uint64_t>(ni))),
          rng_.next_bool());
    }
    pla.set_buffer_inverted(static_cast<int>(rng_.next_below(3)),
                            rng_.next_bool());
    for (const std::uint64_t count : kBatchSizes) {
      expect_batch_matches_scalar(pla, rng_, count);
    }
  }
}

TEST_P(BatchScalarEquivalence, Wpla) {
  for (int t = 0; t < 6; ++t) {
    const int ni = 2 + static_cast<int>(rng_.next_below(6));
    const int k = 1 + static_cast<int>(rng_.next_below(2));
    Cover stage_a(ni, k);
    for (int c = 0; c < 3; ++c) {
      stage_a.add(random_cube(rng_, ni, k));
    }
    Cover stage_b(ni + k, 2);
    for (int c = 0; c < 4; ++c) {
      stage_b.add(random_cube(rng_, ni + k, 2));
    }
    const core::Wpla wpla(stage_a, stage_b, ni);
    for (const std::uint64_t count : kBatchSizes) {
      expect_batch_matches_scalar(wpla, rng_, count);
    }
  }
}

TEST_P(BatchScalarEquivalence, SimEvaluator) {
  // The transistor-level simulator obeys the same Evaluator law as the
  // logic-level models: batch == scalar, pattern for pattern, across
  // word-straddling batch sizes — and both sides of the law are full
  // switch-level settles, so this doubles as a reset-state soundness
  // sweep (every pattern must be independent of the ones before it).
  for (int t = 0; t < 3; ++t) {
    const int ni = 2 + static_cast<int>(rng_.next_below(4));
    Cover f(ni, 2);
    for (int k = 0; k < 2 + static_cast<int>(rng_.next_below(4)); ++k) {
      f.add(random_cube(rng_, ni, 2));
    }
    const simulate::SimEvaluator sim_eval(core::GnorPla::map_cover(f),
                                          tech::default_cnfet_electrical());
    for (const std::uint64_t count : kBatchSizes) {
      expect_batch_matches_scalar(sim_eval, rng_, count);
    }
  }
}

TEST(SimulatorCrossValidation, SimulatorMatchesEveryFunctionalModel) {
  // The strongest oracle chain the repo has: for randomized covers the
  // switch-level SimEvaluator, the mapped GnorPla and the classical
  // baseline derived from the same cover must agree exhaustively.
  Rng rng(20260730);
  for (int t = 0; t < 4; ++t) {
    const int ni = 3 + static_cast<int>(rng.next_below(3));
    Cover f(ni, 2);
    for (int k = 0; k < 3 + static_cast<int>(rng.next_below(5)); ++k) {
      f.add(random_cube(rng, ni, 2));
    }
    const auto pla = core::GnorPla::map_cover(f);
    const simulate::SimEvaluator sim_eval(pla,
                                          tech::default_cnfet_electrical());
    EXPECT_TRUE(equivalent(sim_eval, pla)) << "trial " << t;
  }
}

TEST_P(BatchScalarEquivalence, Fabric) {
  const auto random_cell = [this] {
    return static_cast<core::CellConfig>(rng_.next_below(3));
  };
  for (int t = 0; t < 6; ++t) {
    const int ni = 2 + static_cast<int>(rng_.next_below(5));
    Cover f(ni, 2);
    for (int c = 0; c < 4; ++c) {
      f.add(random_cube(rng_, ni, 2));
    }
    const auto pla = core::GnorPla::map_cover(f);
    core::Fabric fabric(ni);
    // Plane columns wider than the bus leave undriven (grounded)
    // columns, here programmed at random, invert cells included;
    // feed-through on the first stage widens the bus.
    core::GnorPlane wide(pla.num_products(), ni + 1);
    for (int r = 0; r < pla.num_products(); ++r) {
      for (int c = 0; c < ni; ++c) {
        wide.set_cell(r, c, pla.product_plane().cell(r, c));
      }
      wide.set_cell(r, ni, random_cell());
    }
    fabric.add_stage(core::FabricStage(
        core::Fabric::identity_routing(ni, ni + 1), std::move(wide),
        /*feed=*/true));
    // A permuted route onto a random plane, fed through again, so the
    // next stage reads primary inputs and plane rows side by side.
    const int bus = fabric.bus_width();
    std::vector<int> order(static_cast<std::size_t>(bus));
    for (int h = 0; h < bus; ++h) {
      order[static_cast<std::size_t>(h)] = h;
    }
    rng_.shuffle(order);
    core::Crossbar permuted(bus, bus);
    core::GnorPlane mixer(3, bus);
    for (int h = 0; h < bus; ++h) {
      permuted.set_switch(h, order[static_cast<std::size_t>(h)], true);
      for (int r = 0; r < 3; ++r) {
        mixer.set_cell(r, h, random_cell());
      }
    }
    fabric.add_stage(core::FabricStage(std::move(permuted), std::move(mixer),
                                       /*feed=*/true));
    // The last stage does not feed through on even trials, so the
    // outputs are its rows alone; on odd ones they are the whole bus.
    core::GnorPlane last(2, fabric.bus_width());
    for (int r = 0; r < 2; ++r) {
      for (int c = 0; c < fabric.bus_width(); ++c) {
        last.set_cell(r, c, random_cell());
      }
    }
    fabric.add_stage(core::FabricStage(
        core::Fabric::identity_routing(fabric.bus_width(),
                                       fabric.bus_width()),
        std::move(last), /*feed=*/t % 2 == 1));
    for (const std::uint64_t count : kBatchSizes) {
      expect_batch_matches_scalar(fabric, rng_, count);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchScalarEquivalence,
                         testing::Values(1, 2, 3),
                         [](const testing::TestParamInfo<int>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(CrossbarRelations, ConnectivityIsEquivalenceRelation) {
  Rng rng(321);
  for (int t = 0; t < 10; ++t) {
    core::Crossbar xb(5, 5);
    for (int h = 0; h < 5; ++h) {
      for (int v = 0; v < 5; ++v) {
        xb.set_switch(h, v, rng.next_bool(0.2));
      }
    }
    const auto labels = xb.components();
    for (int a = 0; a < xb.num_wires(); ++a) {
      EXPECT_TRUE(xb.connected(a, a));  // reflexive
      for (int b = 0; b < xb.num_wires(); ++b) {
        EXPECT_EQ(xb.connected(a, b), xb.connected(b, a));  // symmetric
        // Components agree with pairwise connectivity.
        EXPECT_EQ(labels[static_cast<std::size_t>(a)] ==
                      labels[static_cast<std::size_t>(b)],
                  xb.connected(a, b));
      }
    }
  }
}

TEST(CrossbarRelations, PathLengthTriangleInequality) {
  Rng rng(654);
  core::Crossbar xb(6, 6);
  for (int h = 0; h < 6; ++h) {
    for (int v = 0; v < 6; ++v) {
      xb.set_switch(h, v, rng.next_bool(0.3));
    }
  }
  for (int a = 0; a < xb.num_wires(); ++a) {
    for (int b = 0; b < xb.num_wires(); ++b) {
      for (int c = 0; c < xb.num_wires(); ++c) {
        const int ab = xb.path_switch_count(a, b);
        const int bc = xb.path_switch_count(b, c);
        const int ac = xb.path_switch_count(a, c);
        if (ab >= 0 && bc >= 0) {
          ASSERT_GE(ac, 0);
          EXPECT_LE(ac, ab + bc);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ambit
