// Tests for the transistor-level GNOR-PLA simulator: agreement with the
// functional model, dynamic timing behaviour, fault injection, the
// word-packed batch path (bit-identical to scalar simulate() for any
// worker count), the Fig. 2 timing golden values, and the SimEvaluator
// adapter that makes the simulator a drop-in Evaluator oracle.
#include <gtest/gtest.h>

#include <thread>

#include "core/evaluator.h"
#include "core/fig2.h"
#include "espresso/espresso.h"
#include "logic/pattern_batch.h"
#include "logic/synth_bench.h"
#include "logic/truth_table.h"
#include "simulate/pla_sim.h"
#include "simulate/sim_evaluator.h"
#include "tech/delay_model.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ambit::simulate {
namespace {

using core::CellConfig;
using core::GnorPla;
using core::PolarityState;
using logic::Cover;
using logic::PatternBatch;
using tech::default_cnfet_electrical;

std::vector<bool> bits_of(std::uint64_t m, int n) {
  std::vector<bool> bits(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    bits[static_cast<std::size_t>(i)] = ((m >> i) & 1) != 0;
  }
  return bits;
}

TEST(PlaSimTest, ExorMatchesFunctionalModel) {
  const Cover f = Cover::parse(2, 1, {"10 1", "01 1"});
  const GnorPla pla = GnorPla::map_cover(f);
  GnorPlaSimulator sim(pla, default_cnfet_electrical());
  for (std::uint64_t m = 0; m < 4; ++m) {
    const auto in = bits_of(m, 2);
    const auto result = sim.run_cycle(in);
    ASSERT_EQ(result.outputs.size(), 1u);
    ASSERT_TRUE(is_definite(result.outputs[0]));
    EXPECT_EQ(result.outputs[0] == Logic::k1, pla.evaluate(in)[0])
        << "minterm " << m;
  }
}

TEST(PlaSimTest, ProductLinesObservable) {
  const Cover f = Cover::parse(3, 1, {"11- 1", "0-1 1"});
  GnorPlaSimulator sim(GnorPla::map_cover(f), default_cnfet_electrical());
  const auto result = sim.run_cycle({true, true, false});
  ASSERT_EQ(result.product_lines.size(), 2u);
  EXPECT_EQ(result.product_lines[0], Logic::k1);
  EXPECT_EQ(result.product_lines[1], Logic::k0);
}

TEST(PlaSimTest, TimingComponentsArePositive) {
  const Cover f = Cover::parse(3, 2, {"11- 10", "0-1 01", "1-1 11"});
  GnorPlaSimulator sim(GnorPla::map_cover(f), default_cnfet_electrical());
  const auto result = sim.run_cycle({true, true, true});
  EXPECT_GT(result.precharge_delay_s, 0);
  EXPECT_GT(result.cycle_s(), result.precharge_delay_s);
}

TEST(PlaSimTest, WiderPlaneIsSlower) {
  // More input columns -> more row capacitance -> slower evaluate.
  const auto e = default_cnfet_electrical();
  logic::SynthSpec narrow{.num_inputs = 4, .num_outputs = 1, .num_cubes = 4,
                          .literals_per_cube = 3};
  logic::SynthSpec wide{.num_inputs = 16, .num_outputs = 1, .num_cubes = 4,
                        .literals_per_cube = 3};
  const Cover fn = logic::generate_cover(narrow, 5);
  const Cover fw = logic::generate_cover(wide, 5);
  GnorPlaSimulator sim_n(GnorPla::map_cover(fn), e);
  GnorPlaSimulator sim_w(GnorPla::map_cover(fw), e);
  // Pick inputs that fire at least one product in both (all-ones covers
  // nothing in general, so just compare precharge, which is
  // load-dependent only).
  const auto rn = sim_n.run_cycle(std::vector<bool>(4, false));
  const auto rw = sim_w.run_cycle(std::vector<bool>(16, false));
  EXPECT_GT(rw.precharge_delay_s, rn.precharge_delay_s);
}

TEST(PlaSimTest, StuckOffFaultDropsProduct) {
  // f = x0·x1; breaking the x0 cell turns the product into NOR(x̄1)=x1.
  const Cover f = Cover::parse(2, 1, {"11 1"});
  GnorPlaSimulator sim(GnorPla::map_cover(f), default_cnfet_electrical());
  // Healthy: 01 input (x0=0) -> output 0.
  EXPECT_EQ(sim.run_cycle({false, true}).outputs[0], Logic::k0);
  // Stuck-off fault on the x0 cell (plane 1, row 0, col 0).
  sim.override_cell(1, 0, 0, PolarityState::kOff);
  EXPECT_EQ(sim.run_cycle({false, true}).outputs[0], Logic::k1);
}

TEST(PlaSimTest, StuckWrongPolarityFlipsLiteral)  {
  // f = x0: cell is kInvert (p-type). Stuck n-type computes x̄0.
  const Cover f = Cover::parse(1, 1, {"1 1"});
  GnorPlaSimulator sim(GnorPla::map_cover(f), default_cnfet_electrical());
  EXPECT_EQ(sim.run_cycle({true}).outputs[0], Logic::k1);
  sim.override_cell(1, 0, 0, PolarityState::kNType);
  EXPECT_EQ(sim.run_cycle({true}).outputs[0], Logic::k0);
  EXPECT_EQ(sim.run_cycle({false}).outputs[0], Logic::k1);
}

TEST(PlaSimTest, OutputPlaneFaultDisconnectsProduct) {
  const Cover f = Cover::parse(2, 1, {"1- 1", "-1 1"});
  GnorPlaSimulator sim(GnorPla::map_cover(f), default_cnfet_electrical());
  EXPECT_EQ(sim.run_cycle({true, false}).outputs[0], Logic::k1);
  // Disconnect product 0 from the output row.
  sim.override_cell(2, 0, 0, PolarityState::kOff);
  EXPECT_EQ(sim.run_cycle({true, false}).outputs[0], Logic::k0);
  EXPECT_EQ(sim.run_cycle({false, true}).outputs[0], Logic::k1);
}

// Parameterized equivalence sweep: simulator vs functional model vs
// original cover, on random minimized covers.
class PlaSimSweep : public testing::TestWithParam<int> {};

TEST_P(PlaSimSweep, MatchesFunctionalModelExhaustively) {
  const int ni = GetParam();
  logic::SynthSpec spec{.num_inputs = ni, .num_outputs = 2,
                        .num_cubes = 2 * ni, .literals_per_cube = (ni + 1) / 2,
                        .extra_output_rate = 0.2};
  const Cover raw = logic::generate_cover(spec, 77 + ni);
  const Cover f = espresso::minimize(raw).cover;
  const GnorPla pla = GnorPla::map_cover(f);
  GnorPlaSimulator sim(pla, default_cnfet_electrical());
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << ni); ++m) {
    const auto in = bits_of(m, ni);
    const auto expected = pla.evaluate(in);
    const auto got = sim.run_cycle(in);
    for (std::size_t j = 0; j < expected.size(); ++j) {
      ASSERT_TRUE(is_definite(got.outputs[j]));
      ASSERT_EQ(got.outputs[j] == Logic::k1, expected[j])
          << "minterm " << m << " output " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(InputSizes, PlaSimSweep, testing::Values(3, 4, 5, 6),
                         [](const testing::TestParamInfo<int>& info) {
                           return "i" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Batch path: simulate_batch vs scalar simulate(), vs the functional
// bit-parallel evaluators, and across worker counts.
// ---------------------------------------------------------------------------

/// A randomized minimized cover for batch sweeps.
Cover random_minimized_cover(int num_inputs, int num_outputs, int seed) {
  logic::SynthSpec spec{.num_inputs = num_inputs,
                        .num_outputs = num_outputs,
                        .num_cubes = 2 * num_inputs,
                        .literals_per_cube = (num_inputs + 1) / 2,
                        .extra_output_rate = 0.25};
  return espresso::minimize(logic::generate_cover(spec, seed)).cover;
}

/// A batch of `count` rng-drawn patterns over `width` signals, with the
/// edge lanes the cross-validation suite must include: pattern 0 is
/// all-zeros, pattern 1 all-ones, and the final patterns repeat them so
/// the constant lanes straddle the tail word too.
PatternBatch random_batch_with_edges(int width, std::uint64_t count,
                                     Rng& rng) {
  PatternBatch batch(width, count);
  for (std::uint64_t p = 0; p < count; ++p) {
    const bool constant = p < 2 || p + 2 >= count;
    const bool ones = constant ? (p % 2 == 1) : false;
    for (int i = 0; i < width; ++i) {
      batch.set(p, i, constant ? ones : rng.next_bool());
    }
  }
  return batch;
}

TEST(PlaSimBatchTest, MatchesScalarSimulateBitAndDelayExact) {
  // Word-straddling pattern count on randomized covers: outputs AND the
  // three per-pattern delays must equal scalar simulate() EXACTLY (the
  // delays with ==, not a tolerance — same arithmetic, same doubles).
  for (const int seed : {1, 2, 3}) {
    const Cover f = random_minimized_cover(3 + seed, 2, 31 * seed);
    const GnorPla pla = GnorPla::map_cover(f);
    GnorPlaSimulator sim(pla, default_cnfet_electrical());
    Rng rng(static_cast<std::uint64_t>(seed) * 977 + 5);
    const PatternBatch inputs =
        random_batch_with_edges(pla.num_inputs(), 257, rng);
    const BatchSimResult batch = sim.simulate_batch(inputs);
    ASSERT_TRUE(batch.all_definite());
    for (std::uint64_t p = 0; p < inputs.num_patterns(); ++p) {
      const PlaSimResult scalar = sim.simulate(inputs.pattern(p));
      for (int o = 0; o < pla.num_outputs(); ++o) {
        ASSERT_EQ(batch.outputs.get(p, o),
                  scalar.outputs[static_cast<std::size_t>(o)] == Logic::k1)
            << "seed " << seed << " pattern " << p << " output " << o;
      }
      ASSERT_EQ(batch.precharge_delay_s[p], scalar.precharge_delay_s)
          << "pattern " << p;
      ASSERT_EQ(batch.plane1_eval_delay_s[p], scalar.plane1_eval_delay_s)
          << "pattern " << p;
      ASSERT_EQ(batch.plane2_eval_delay_s[p], scalar.plane2_eval_delay_s)
          << "pattern " << p;
    }
  }
}

TEST(PlaSimBatchTest, CrossValidatesAgainstFunctionalBatch) {
  // The oracle role: >= 4k patterns of transistor-level settles checked
  // word-for-word against the logic-level bit-parallel kernel.
  const Cover f = random_minimized_cover(8, 3, 42);
  const GnorPla pla = GnorPla::map_cover(f);
  GnorPlaSimulator sim(pla, default_cnfet_electrical());
  Rng rng(4242);
  const PatternBatch inputs = random_batch_with_edges(8, 4096, rng);
  const BatchSimResult simulated = sim.simulate_batch(inputs);
  EXPECT_TRUE(simulated.all_definite());
  EXPECT_EQ(simulated.outputs, pla.evaluate_batch(inputs));
}

TEST(PlaSimBatchTest, ExhaustiveCrossValidationSmallCover) {
  // Exhaustive agreement on a minimized random cover, through the
  // truth-table identity of the batch layout.
  const Cover f = random_minimized_cover(6, 2, 7);
  const GnorPla pla = GnorPla::map_cover(f);
  GnorPlaSimulator sim(pla, default_cnfet_electrical());
  const PatternBatch all = PatternBatch::exhaustive(6);
  const BatchSimResult simulated = sim.simulate_batch(all);
  EXPECT_TRUE(simulated.all_definite());
  EXPECT_EQ(simulated.outputs, pla.evaluate_batch(all));
}

TEST(PlaSimBatchTest, WorkerCountDeterminism) {
  // 0 (no pool), 1, 4 and hardware-concurrency workers must produce
  // IDENTICAL packed words and delay vectors — the shard partition is
  // word-aligned and every pattern resets to the same state.
  const Cover f = random_minimized_cover(5, 2, 13);
  const GnorPla pla = GnorPla::map_cover(f);
  GnorPlaSimulator sim(pla, default_cnfet_electrical());
  Rng rng(999);
  const PatternBatch inputs =
      random_batch_with_edges(pla.num_inputs(), 1000, rng);
  const BatchSimResult reference = sim.simulate_batch(inputs, nullptr);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int workers : {1, 4, hw > 0 ? hw : 2}) {
    ThreadPool pool(workers);
    const BatchSimResult result = sim.simulate_batch(inputs, &pool);
    EXPECT_EQ(result.outputs, reference.outputs) << workers << " workers";
    EXPECT_EQ(result.definite, reference.definite) << workers << " workers";
    EXPECT_EQ(result.precharge_delay_s, reference.precharge_delay_s)
        << workers << " workers";
    EXPECT_EQ(result.plane1_eval_delay_s, reference.plane1_eval_delay_s)
        << workers << " workers";
    EXPECT_EQ(result.plane2_eval_delay_s, reference.plane2_eval_delay_s)
        << workers << " workers";
  }
}

TEST(PlaSimBatchTest, FaultOverridePersistsIntoBatch) {
  // f = x0·x1 with the x0 cell stuck off degrades to x1; the batch path
  // must sweep the OVERRIDDEN network (shards copy the fault too).
  const Cover f = Cover::parse(2, 1, {"11 1"});
  GnorPlaSimulator sim(GnorPla::map_cover(f), default_cnfet_electrical());
  sim.override_cell(1, 0, 0, PolarityState::kOff);
  const PatternBatch all = PatternBatch::exhaustive(2);
  const BatchSimResult faulty = sim.simulate_batch(all);
  ASSERT_TRUE(faulty.all_definite());
  for (std::uint64_t m = 0; m < 4; ++m) {
    EXPECT_EQ(faulty.outputs.get(m, 0), (m & 2) != 0) << "minterm " << m;
  }
}

TEST(PlaSimBatchTest, WidthMismatchThrows) {
  const Cover f = Cover::parse(3, 1, {"11- 1"});
  GnorPlaSimulator sim(GnorPla::map_cover(f), default_cnfet_electrical());
  EXPECT_THROW(sim.simulate_batch(PatternBatch(2, 8)), Error);
  EXPECT_THROW(sim.simulate_batch(PatternBatch(4, 8)), Error);
}

// ---------------------------------------------------------------------------
// Timing oracle: golden values on the Fig. 2 reference PLA and the
// worst-case cycle statistics.
// ---------------------------------------------------------------------------

using core::fig2_reference_pla;  // the shared Fig. 2 construction

constexpr double kLn2 = 0.6931471805599453;

TEST(PlaSimTimingTest, Fig2GoldenWorstCase) {
  // The switch-level worst-case phase delays reproduce the first-order
  // model of tech/delay_model.h from the network itself, with the
  // component terms the closed-form model folds away made explicit:
  //
  //   * precharge: every row hangs off VDD through its TPC, so the
  //     driven component carries BOTH row capacitances plus each
  //     conducting foot (worst pattern: a plane-1 cell conducts);
  //   * plane-1 evaluate: one cell + TEV in series (2 R_on), row plus
  //     its foot;
  //   * plane-2 evaluate: 2 R_on, output row plus its foot — plus the
  //     plane-1 foot of the unfired product row, which shares the GND
  //     component through its TEV.
  const tech::CnfetElectrical e = default_cnfet_electrical();
  const GnorPla pla = fig2_reference_pla();
  GnorPlaSimulator sim(pla, e);
  const BatchSimResult result =
      sim.simulate_batch(PatternBatch::exhaustive(4));
  ASSERT_TRUE(result.all_definite());

  // Functional polarity pinned: Y = NOR(A, B', D) itself, not its
  // complement (the inverting buffer tap undoes the plane-2 NOR — this
  // is the wrap bug bench_fig2_gnor shipped with).
  for (std::uint64_t m = 0; m < 16; ++m) {
    const bool a = (m & 1) != 0;
    const bool b = (m & 2) != 0;
    const bool d = (m & 8) != 0;
    EXPECT_EQ(result.outputs.get(m, 0), !(a || !b || d)) << "minterm " << m;
  }

  const double c1 = tech::gnor_row_capacitance_f(4, e);   // product row
  const double c2 = tech::gnor_row_capacitance_f(1, e);   // output row
  const double cf = e.c_cell_f;                           // one foot node
  const double expected_pre = kLn2 * e.r_on_ohm * (c1 + c2 + 2 * cf);
  const double expected_e1 = kLn2 * 2 * e.r_on_ohm * (c1 + cf);
  const double expected_e2 = kLn2 * 2 * e.r_on_ohm * (c2 + 2 * cf);
  EXPECT_NEAR(result.worst_precharge_s() / expected_pre, 1.0, 1e-9);
  EXPECT_NEAR(result.worst_plane1_eval_s() / expected_e1, 1.0, 1e-9);
  EXPECT_NEAR(result.worst_plane2_eval_s() / expected_e2, 1.0, 1e-9);

  // Golden picosecond values, checked in.
  EXPECT_NEAR(result.worst_precharge_s() * 1e12, 26.8594, 1e-3);
  EXPECT_NEAR(result.worst_plane1_eval_s() * 1e12, 39.8560, 1e-3);
  EXPECT_NEAR(result.worst_plane2_eval_s() * 1e12, 19.0615, 1e-3);
  EXPECT_NEAR(result.worst_cycle_s() * 1e12, 85.7769, 1e-3);

  // The first-order model is the same expression without the shared
  // component terms, so it bounds the simulated cycle from below and
  // agrees within the foot/TPC-sharing correction (< 1.6x here).
  const double model =
      tech::gnor_pla_cycle_s(pla.dimensions(), e);
  EXPECT_GT(result.worst_cycle_s(), model);
  EXPECT_LT(result.worst_cycle_s(), 1.6 * model);
}

TEST(PlaSimTimingTest, Fig2BatchDelaysEqualScalarRunCycle) {
  // The batch sweep's per-pattern delays equal per-pattern scalar
  // simulate() delays exactly, pattern for pattern.
  const tech::CnfetElectrical e = default_cnfet_electrical();
  GnorPlaSimulator sim(fig2_reference_pla(), e);
  const PatternBatch all = PatternBatch::exhaustive(4);
  const BatchSimResult batch = sim.simulate_batch(all);
  for (std::uint64_t m = 0; m < 16; ++m) {
    const PlaSimResult scalar = sim.simulate(all.pattern(m));
    EXPECT_EQ(batch.precharge_delay_s[m], scalar.precharge_delay_s)
        << "minterm " << m;
    EXPECT_EQ(batch.plane1_eval_delay_s[m], scalar.plane1_eval_delay_s)
        << "minterm " << m;
    EXPECT_EQ(batch.plane2_eval_delay_s[m], scalar.plane2_eval_delay_s)
        << "minterm " << m;
    EXPECT_EQ(batch.cycle_s(m), scalar.cycle_s()) << "minterm " << m;
  }
}

TEST(PlaSimTimingTest, WorstCaseCycleStatistics) {
  const tech::CnfetElectrical e = default_cnfet_electrical();
  GnorPlaSimulator sim(fig2_reference_pla(), e);
  const BatchSimResult result =
      sim.simulate_batch(PatternBatch::exhaustive(4));

  // worst_cycle_s is the clock period: the SUM of phase maxima — here
  // strictly larger than any single pattern's cycle, because firing
  // patterns stress plane 1 and non-firing patterns stress plane 2.
  double worst_single = 0;
  double total = 0;
  std::uint64_t argmax = 0;
  for (std::uint64_t m = 0; m < 16; ++m) {
    const double c = result.cycle_s(m);
    total += c;
    if (c > worst_single) {
      worst_single = c;
      argmax = m;
    }
  }
  EXPECT_EQ(result.critical_pattern(), argmax);
  EXPECT_NEAR(result.mean_cycle_s(), total / 16, 1e-24);
  EXPECT_GT(result.worst_cycle_s(), worst_single);
  EXPECT_LE(worst_single, result.worst_precharge_s() +
                              result.worst_plane1_eval_s() +
                              result.worst_plane2_eval_s());
}

// ---------------------------------------------------------------------------
// Four-valued robustness: all-X and floating stimuli degrade
// pessimistically and never corrupt later clean cycles.
// ---------------------------------------------------------------------------

TEST(PlaSimXTest, AllXInputsDegradeOutputsPessimistically) {
  const Cover f = Cover::parse(2, 1, {"10 1", "01 1"});
  GnorPlaSimulator sim(GnorPla::map_cover(f), default_cnfet_electrical());
  const PlaSimResult hazy =
      sim.run_cycle_logic({Logic::kX, Logic::kX});
  EXPECT_EQ(hazy.outputs[0], Logic::kX);
  // A clean boolean cycle afterwards recovers completely: simulate()
  // resets the retained X charge first.
  const PlaSimResult clean = sim.simulate({true, false});
  EXPECT_EQ(clean.outputs[0], Logic::k1);
}

TEST(PlaSimXTest, FloatingInputIsPessimisticNotGuessed) {
  const Cover f = Cover::parse(1, 1, {"1 1"});
  GnorPlaSimulator sim(GnorPla::map_cover(f), default_cnfet_electrical());
  const PlaSimResult floating = sim.run_cycle_logic({Logic::kZ});
  EXPECT_FALSE(is_definite(floating.outputs[0]));
  EXPECT_EQ(sim.simulate({true}).outputs[0], Logic::k1);
  EXPECT_EQ(sim.simulate({false}).outputs[0], Logic::k0);
}

// ---------------------------------------------------------------------------
// SimEvaluator: the simulator behind the unified Evaluator interface.
// ---------------------------------------------------------------------------

TEST(SimEvaluatorTest, EquivalentToMappedArrayExhaustively) {
  const Cover f = random_minimized_cover(5, 2, 17);
  const GnorPla pla = GnorPla::map_cover(f);
  const SimEvaluator sim_eval(pla, default_cnfet_electrical());
  EXPECT_EQ(sim_eval.num_inputs(), pla.num_inputs());
  EXPECT_EQ(sim_eval.num_outputs(), pla.num_outputs());
  // The generic equivalence harness drives the SIMULATOR as a regular
  // evaluator: exhaustive truth tables, word for word.
  EXPECT_TRUE(equivalent(sim_eval, pla));
}

TEST(SimEvaluatorTest, UniformWidthValidationAtTheBoundary) {
  const Cover f = Cover::parse(3, 1, {"1-1 1"});
  const SimEvaluator sim_eval(GnorPla::map_cover(f),
                              default_cnfet_electrical());
  EXPECT_THROW(sim_eval.evaluate(std::vector<bool>(2)), Error);
  EXPECT_THROW(sim_eval.evaluate_batch(PatternBatch(4, 8)), Error);
}

TEST(SimEvaluatorTest, BatchBoundaryCountsMatchScalarSimulation) {
  // Word-boundary pattern counts through the transistor-level oracle:
  // 63/64/65 straddle the tail-mask flip (partial → all-ones → fresh
  // word), where a batch kernel mishandling the final word would
  // diverge from per-pattern simulation. 0 is an empty batch, which
  // must come back empty rather than trip over a zero-word range.
  const Cover f = random_minimized_cover(4, 2, 31);
  const SimEvaluator sim_eval(GnorPla::map_cover(f),
                              default_cnfet_electrical());
  Rng rng(77);
  for (const std::uint64_t count : {0ull, 63ull, 64ull, 65ull}) {
    PatternBatch inputs(sim_eval.num_inputs(), count);
    for (std::uint64_t p = 0; p < count; ++p) {
      for (int s = 0; s < sim_eval.num_inputs(); ++s) {
        inputs.set(p, s, rng.next_bool());
      }
    }
    PatternBatch expected(sim_eval.num_outputs(), count);
    for (std::uint64_t p = 0; p < count; ++p) {
      const std::vector<bool> out = sim_eval.evaluate(inputs.pattern(p));
      for (int j = 0; j < sim_eval.num_outputs(); ++j) {
        expected.set(p, j, out[static_cast<std::size_t>(j)]);
      }
    }
    EXPECT_EQ(sim_eval.evaluate_batch(inputs), expected)
        << count << " patterns";
  }
}

TEST(SimEvaluatorTest, PoolShardingIsBitIdentical) {
  const Cover f = random_minimized_cover(5, 2, 23);
  const SimEvaluator sim_eval(GnorPla::map_cover(f),
                              default_cnfet_electrical());
  Rng rng(555);
  const PatternBatch inputs =
      random_batch_with_edges(sim_eval.num_inputs(), 1500, rng);
  ThreadPool pool(4);
  EXPECT_EQ(sim_eval.evaluate_batch(inputs, pool),
            sim_eval.evaluate_batch(inputs));
}

}  // namespace
}  // namespace ambit::simulate
