// A GNOR plane: the array tile of the paper's PLA (§4, Fig. 4).
//
// rows × cols ambipolar CNFET cells; every row is one GNOR gate over
// the shared column inputs. Two cascaded planes form a PLA; four form
// a Whirlpool PLA; a plane with all control gates tied high degenerates
// into the crossbar interconnect (modeled separately in crossbar.h).
//
// Next to its cells a plane keeps its pull-down network compiled into
// sweep rows (core/sweep_program.h): an n-type cell conducts on its
// input lane as-is (a pass term), a p-type cell on its complement (an
// invert term). set_cell updates the compiled rows eagerly, so the
// stages GnorPla, Wpla and evaluate_batch run read the current cells,
// evaluation does no per-call set-up, and a const plane is safe to
// sweep from any number of threads. The compiled rows are a pure
// function of the cells, so copies carry current ones and operator==
// compares cells alone.
#pragma once

#include <string>
#include <vector>

#include "core/gnor.h"
#include "core/sweep_program.h"
#include "logic/pattern_batch.h"

namespace ambit::core {

/// A rectangular array of GNOR cells, evaluated row-wise.
class GnorPlane {
 public:
  /// All cells start off (every row is constant 1).
  GnorPlane(int rows, int cols);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  CellConfig cell(int row, int col) const;
  void set_cell(int row, int col, CellConfig config);

  /// Row `row` viewed as a standalone GNOR gate.
  GnorGate row_gate(int row) const;

  /// Evaluates all rows against the shared column inputs.
  std::vector<bool> evaluate(const std::vector<bool>& inputs) const;

  /// Word-parallel row evaluation: lane r of the result carries row r's
  /// value for all patterns of the batch (64 patterns per AND/OR/NOT),
  /// the compiled rows run as a one-stage SweepProgram.
  logic::PatternBatch evaluate_batch(const logic::PatternBatch& inputs) const;

  /// The compiled rows: one NOR row per plane row, whose terms are the
  /// row's non-off cells in column order (term lane = column).
  const CompiledPlane& compiled() const { return compiled_; }

  /// Number of cells not configured off. 64-bit: rows · cols can
  /// exceed int.
  long long active_cells() const;

  /// Total number of programmable cells (rows · cols).
  long long cell_count() const {
    return static_cast<long long>(rows_) * cols_;
  }

  /// ASCII art of the configuration: '+' pass, '-' invert, '.' off.
  /// One text row per plane row.
  std::string to_ascii() const;

  /// Same shape and same cells (the program follows from them).
  bool operator==(const GnorPlane& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           cells_ == other.cells_;
  }

 private:
  int rows_;
  int cols_;
  std::vector<CellConfig> cells_;  // row-major
  CompiledPlane compiled_;         // cols_ term slots per row

  std::size_t index(int row, int col) const;
};

}  // namespace ambit::core
