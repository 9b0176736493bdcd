// A GNOR plane: the array tile of the paper's PLA (§4, Fig. 4).
//
// rows × cols ambipolar CNFET cells; every row is one GNOR gate over
// the shared column inputs. Two cascaded planes form a PLA; four form
// a Whirlpool PLA; a plane with all control gates tied high degenerates
// into the crossbar interconnect (modeled separately in crossbar.h).
//
// Next to its cells a plane keeps its pull-down network compiled into
// lane-kernel sweep rows (logic/lane_kernels.h). set_cell updates the
// program eagerly, so evaluation does no per-call set-up and never
// writes shared state: a const plane is safe to sweep from any number
// of threads. The program is a pure function of the cells, so copies
// carry a current one and operator== compares cells alone.
#pragma once

#include <string>
#include <vector>

#include "core/gnor.h"
#include "logic/lane_kernels.h"
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
  /// one dispatched plane_sweep over the compiled program. GnorPla
  /// runs the same program tile by tile instead (core/gnor_pla.h).
  logic::PatternBatch evaluate_batch(const logic::PatternBatch& inputs) const;

  /// The compiled program: one NOR row per plane row, whose terms are
  /// the row's non-off cells in column order — an n-type cell conducts
  /// on the input lane as-is (pass term), a p-type cell on its
  /// complement (invert term). Row r's terms start at sweep_terms() +
  /// r * cols(). Both stay valid until the next set_cell.
  const logic::lanes::SweepRow* sweep_rows() const {
    return sweep_rows_.data();
  }
  const logic::lanes::SweepTerm* sweep_terms() const {
    return sweep_terms_.data();
  }

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
  // The compiled program: row r owns the term slots [r*cols_,
  // (r+1)*cols_), of which the first sweep_rows_[r].num_terms are live.
  std::vector<logic::lanes::SweepRow> sweep_rows_;
  std::vector<logic::lanes::SweepTerm> sweep_terms_;

  std::size_t index(int row, int col) const;
};

}  // namespace ambit::core
