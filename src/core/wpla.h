// Whirlpool PLA: four cascaded NOR planes (paper §5; Brayton et al.,
// ICCAD'02 — the paper's reference [1]).
//
// "The cascade of 4 NOR plane instead of 2 makes the implementation of
//  WPLAs with the presented architecture possible."
//
// AMBIT's WPLA is two chained GNOR PLAs: stage A computes intermediate
// functions G over the primary inputs (planes 1–2); stage B computes
// the outputs over inputs ∪ G (planes 3–4; the primary inputs ride
// through on feed-through tracks, Fig. 3 style). Because every plane
// is a GNOR plane, each stage still needs only ONE column per signal.
//
// The batch path is the four planes' SweepProgram (core/sweep_program.h)
// over one scratch tile laid out [primary inputs | G | stage A's
// products | stage B's products], so plane 3 reads the feed-through
// tracks and G as one run of lanes and no lane is copied between
// stages; only the primary inputs are staged into the tile, once per
// tile.
//
// Synthesis (synthesize_wpla) is a Doppio-Espresso variant — two
// Espresso runs joined by OR-resubstitution:
//
//   1. Espresso-minimize the flat cover (with output-phase freedom).
//   2. Pick as stage-A intermediates the outputs whose product sets
//      are contained in other outputs' product sets (so g OR-divides
//      f: f = g + remainder) and that save cells when shared.
//   3. Rewrite the remaining outputs over inputs ∪ G (each divisible
//      output drops the divisor's products and gains one literal on
//      the new G column), then Espresso both stages.
//
// Full algebraic division (kernels) is future work; OR-resubstitution
// already captures the product-sharing that makes WPLAs compact on
// control-style logic, and the transform is verified exhaustively.
#pragma once

#include <vector>

#include "core/gnor_pla.h"
#include "logic/cover.h"

namespace ambit::core {

/// A two-stage (four-NOR-plane) Whirlpool PLA.
class Wpla : public Evaluator {
 public:
  /// Builds from the two stage covers. Stage B's cover is over
  /// (primary inputs + stage-A outputs): its first `primary_inputs`
  /// input columns are the primary inputs, the rest read G.
  Wpla(const logic::Cover& stage_a, const logic::Cover& stage_b,
       int primary_inputs);

  int num_inputs() const override { return primary_inputs_; }
  int num_intermediates() const { return stage_a_.num_outputs(); }
  int num_outputs() const override { return stage_b_.num_outputs(); }

  const GnorPla& stage_a() const { return stage_a_; }
  const GnorPla& stage_b() const { return stage_b_; }

  /// Total programmable cells over all four planes.
  long long cell_count() const;

 protected:
  /// Evaluates the full four-plane cascade.
  std::vector<bool> do_evaluate(const std::vector<bool>& inputs) const override;
  /// Runs the four planes over lane words [word_lo, word_hi).
  void do_evaluate_words(const logic::PatternBatch& inputs,
                         logic::PatternBatch& out, std::uint64_t word_lo,
                         std::uint64_t word_hi) const override;

 private:
  int primary_inputs_;
  GnorPla stage_a_;
  GnorPla stage_b_;
};

/// Result of WPLA synthesis.
struct WplaSynthesis {
  /// Stage-A cover (over primary inputs) and stage-B cover (over
  /// primary inputs + intermediates).
  logic::Cover stage_a;
  logic::Cover stage_b;
  /// Which original outputs became intermediates (stage-A outputs are
  /// ALSO final outputs; they are forwarded through stage B).
  std::vector<int> intermediate_outputs;
  /// Cells of the flat two-plane GNOR PLA, for comparison.
  long long flat_cells = 0;
  /// Cells of the synthesized WPLA.
  long long wpla_cells = 0;

  WplaSynthesis() : stage_a(0, 1), stage_b(0, 1) {}
};

/// Doppio-Espresso synthesis (see file comment). The returned stages
/// satisfy: Wpla(stage_a, stage_b, n).evaluate == original function.
WplaSynthesis synthesize_wpla(const logic::Cover& onset);

}  // namespace ambit::core
