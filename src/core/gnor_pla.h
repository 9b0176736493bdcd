// Two-plane GNOR PLA: the paper's core architecture (§4, Fig. 3–4).
//
// Plane 1 (product plane, products × inputs): row k implements product
// term P_k. A positive literal x becomes a p-type cell (the NOR needs
// x̄: P = x·ȳ = NOR(x̄, y)), a negative literal an n-type cell, an
// absent variable V0. Because the inversion happens inside the cell,
// ONE column per input suffices — the source of the area saving over
// classical PLAs, which replicate every input column.
//
// Plane 2 (output plane, outputs × products): row o computes
// NOR of the selected (optionally re-inverted) product lines. With
// pass-polarity selections the row carries ¬(P_a ∨ P_b ∨ …); the
// peripheral output buffer (not a programmable cell, present in every
// dynamic PLA) restores the polarity. Its tap choice encodes the output
// phase: a Sasao-complemented output simply taps the other polarity —
// "the availability of the product-terms with both polarities".
//
// Cell count = (inputs + outputs) · products, matching Table 1.
//
// The batch path is the planes' two-stage SweepProgram
// (core/sweep_program.h), following the paper's evaluate cycle, in
// which plane 1's product lines drive plane 2 directly: plane 1 reads
// the caller's input lanes in place into one L2-sized tile of every
// product line, and plane 2 reads that tile straight into the caller's
// output lanes, each output's buffer tap folded into its row's final
// polarity. Product lines never reach memory, and a shard
// (Evaluator::do_evaluate_words) is the same run over its own words.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/gnor_plane.h"
#include "logic/cover.h"
#include "tech/area_model.h"

namespace ambit::core {

/// A programmable two-plane GNOR PLA plus per-output buffer taps.
class GnorPla : public Evaluator {
 public:
  GnorPla(int num_inputs, int num_products, int num_outputs);

  /// Maps a minimized cover onto the array. `complemented[o]` declares
  /// that the cover's output o implements f̄_o (phase-optimized); the
  /// mapper compensates through the buffer tap so that evaluate()
  /// always returns the POSITIVE-phase function f. Pass an empty
  /// vector for all-positive phases.
  static GnorPla map_cover(const logic::Cover& cover,
                           const std::vector<bool>& complemented = {});

  int num_inputs() const override { return plane1_.cols(); }
  int num_products() const { return plane1_.rows(); }
  int num_outputs() const override { return plane2_.rows(); }

  const GnorPlane& product_plane() const { return plane1_; }
  const GnorPlane& output_plane() const { return plane2_; }
  GnorPlane& product_plane() { return plane1_; }
  GnorPlane& output_plane() { return plane2_; }

  /// Output buffer tap: true = inverting (the common case for a
  /// positive-phase SOP on a NOR-NOR array).
  bool buffer_inverted(int output) const;
  void set_buffer_inverted(int output, bool inverted);

  /// Product-line values before plane 2 (useful for tests/inspection).
  std::vector<bool> evaluate_products(const std::vector<bool>& inputs) const;

  /// (inputs, outputs, products) for the area/delay models.
  tech::PlaDimensions dimensions() const;

  /// Total programmable cells = (inputs + outputs) · products.
  long long cell_count() const;

  /// Cells actually configured (non-off). 64-bit like cell_count().
  long long active_cells() const;

  /// ASCII rendering of both planes.
  std::string to_ascii() const;

  /// The two planes as program stages (see SweepStage): plane 1 reads
  /// its inputs at `from` and writes its product lines at tile lane
  /// `products`, where plane 2 reads them; plane 2 writes the outputs,
  /// after their buffer taps, at `to`.
  std::array<SweepStage, 2> sweep_stages(std::uint64_t from,
                                         std::uint64_t products,
                                         std::uint64_t to) const;

 protected:
  /// Full functional evaluation: inputs -> outputs (after buffers).
  std::vector<bool> do_evaluate(const std::vector<bool>& inputs) const override;
  /// Runs sweep_stages(caller, 0, caller) over lane words [word_lo,
  /// word_hi).
  void do_evaluate_words(const logic::PatternBatch& inputs,
                         logic::PatternBatch& out, std::uint64_t word_lo,
                         std::uint64_t word_hi) const override;

 private:
  GnorPlane plane1_;  // products × inputs
  GnorPlane plane2_;  // outputs × products
  std::vector<bool> buffer_inverted_;
};

}  // namespace ambit::core
