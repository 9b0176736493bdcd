// Classical NOR-NOR PLA baseline (Flash/EEPROM style, paper §5).
//
// The reference architecture the paper compares against: every input is
// distributed on TWO columns (true and complemented rails, generated by
// peripheral input drivers), and each programmable cell is a simple
// connect/disconnect device — a floating-gate transistor has no
// polarity choice. Product row k = NOR over the connected literal
// columns; output row o = NOR over connected product lines, restored by
// the same peripheral buffer convention as the GNOR PLA.
//
// Cell count = (2·inputs + outputs) · products — the first factor in
// every Table 1 row.
//
// The batch path is GnorPla's two-stage SweepProgram
// (core/sweep_program.h): the x_i and x̄_i rails of input i are a pass
// and an invert term on the one input lane i, so a product row reads
// the caller's input lanes in place into the product tile, and an
// output row reads the tile into the caller's output lanes, its buffer
// tap folded into its polarity. set_and_plane and set_or_plane keep the
// compiled rows current; a product may connect both rails of an input,
// which makes it constant 0.
#pragma once

#include <vector>

#include "core/evaluator.h"
#include "core/sweep_program.h"
#include "logic/cover.h"
#include "tech/area_model.h"

namespace ambit::core {

/// A programmable classical PLA with replicated input columns.
class ClassicalPla : public Evaluator {
 public:
  ClassicalPla(int num_inputs, int num_products, int num_outputs);

  /// Maps a minimized cover; `complemented` has the same meaning as in
  /// GnorPla::map_cover (phase compensated via buffer taps, evaluate()
  /// returns positive-phase outputs).
  static ClassicalPla map_cover(const logic::Cover& cover,
                                const std::vector<bool>& complemented = {});

  int num_inputs() const override { return num_inputs_; }
  int num_products() const { return num_products_; }
  int num_outputs() const override { return num_outputs_; }

  /// Plane-1 connection at (product row, literal column). Columns are
  /// interleaved: column 2i carries x_i, column 2i+1 carries x̄_i.
  bool and_plane_connected(int product, int literal_column) const;
  void set_and_plane(int product, int literal_column, bool connected);

  /// Plane-2 connection at (output row, product column).
  bool or_plane_connected(int output, int product) const;
  void set_or_plane(int output, int product, bool connected);

  bool buffer_inverted(int output) const;
  void set_buffer_inverted(int output, bool inverted);

  /// Product-line values before plane 2.
  std::vector<bool> evaluate_products(const std::vector<bool>& inputs) const;

  tech::PlaDimensions dimensions() const;

  /// Total programmable cells = (2·inputs + outputs) · products.
  long long cell_count() const;

  /// Connected (programmed) cells. 64-bit like cell_count().
  long long active_cells() const;

 protected:
  /// Functional evaluation (after output buffers).
  std::vector<bool> do_evaluate(const std::vector<bool>& inputs) const override;
  /// Runs the two compiled planes over lane words [word_lo, word_hi).
  void do_evaluate_words(const logic::PatternBatch& inputs,
                         logic::PatternBatch& out, std::uint64_t word_lo,
                         std::uint64_t word_hi) const override;

 private:
  int num_inputs_;
  int num_products_;
  int num_outputs_;
  std::vector<bool> and_plane_;  // products × (2·inputs), row-major
  std::vector<bool> or_plane_;   // outputs × products, row-major
  std::vector<bool> buffer_inverted_;
  CompiledPlane and_compiled_;   // over the input lanes
  CompiledPlane or_compiled_;    // over the product lines

  /// Checked row-major indices into and_plane_ and or_plane_.
  std::size_t and_index(int product, int literal_column) const;
  std::size_t or_index(int output, int product) const;
};

}  // namespace ambit::core
