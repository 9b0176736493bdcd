#include "core/gnor_plane.h"

#include <algorithm>
#include <vector>

#include "util/error.h"

namespace ambit::core {

using logic::lanes::SweepRow;
using logic::lanes::SweepTerm;

GnorPlane::GnorPlane(int rows, int cols) : rows_(rows), cols_(cols) {
  check(rows >= 0 && cols >= 0, "GnorPlane: negative dimensions");
  const std::size_t cells =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  cells_.assign(cells, CellConfig::kOff);
  sweep_terms_.resize(cells);
  sweep_rows_.resize(static_cast<std::size_t>(rows));
  for (std::size_t r = 0; r < sweep_rows_.size(); ++r) {
    sweep_rows_[r] = {.first_term = r * static_cast<std::size_t>(cols),
                      .num_terms = 0,
                      .complement = true};  // NOR: invert the pull-down
  }
}

std::size_t GnorPlane::index(int row, int col) const {
  check(row >= 0 && row < rows_ && col >= 0 && col < cols_,
        "GnorPlane: cell index out of range");
  return static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
         static_cast<std::size_t>(col);
}

CellConfig GnorPlane::cell(int row, int col) const {
  return cells_[index(row, col)];
}

void GnorPlane::set_cell(int row, int col, CellConfig config) {
  cells_[index(row, col)] = config;
  // Keep the row's live terms sorted by column: find the cell's slot,
  // then overwrite, insert or erase it. Programming a row in column
  // order appends, so building a plane cell by cell stays linear.
  SweepRow& sweep = sweep_rows_[static_cast<std::size_t>(row)];
  SweepTerm* first = sweep_terms_.data() + sweep.first_term;
  SweepTerm* last = first + sweep.num_terms;
  SweepTerm* at = std::lower_bound(
      first, last, col,
      [](const SweepTerm& term, int c) { return term.lane < c; });
  const bool present = at != last && at->lane == col;
  if (config == CellConfig::kOff) {
    if (present) {
      std::copy(at + 1, last, at);
      --sweep.num_terms;
    }
    return;
  }
  if (!present) {
    std::copy_backward(at, last, last + 1);
    ++sweep.num_terms;
  }
  *at = {.lane = col, .invert = config == CellConfig::kInvert};
}

GnorGate GnorPlane::row_gate(int row) const {
  GnorGate gate(cols_);
  for (int c = 0; c < cols_; ++c) {
    gate.set_cell(c, cell(row, c));
  }
  return gate;
}

std::vector<bool> GnorPlane::evaluate(const std::vector<bool>& inputs) const {
  check(static_cast<int>(inputs.size()) == cols_,
        "GnorPlane::evaluate: input arity mismatch");
  std::vector<bool> outputs(static_cast<std::size_t>(rows_), true);
  for (int r = 0; r < rows_; ++r) {
    bool pulled_down = false;
    for (int c = 0; c < cols_ && !pulled_down; ++c) {
      pulled_down = conducts(polarity_of(cell(r, c)),
                             inputs[static_cast<std::size_t>(c)]);
    }
    outputs[static_cast<std::size_t>(r)] = !pulled_down;
  }
  return outputs;
}

logic::PatternBatch GnorPlane::evaluate_batch(
    const logic::PatternBatch& inputs) const {
  check(inputs.num_signals() == cols_,
        "GnorPlane::evaluate_batch: input arity mismatch");
  logic::PatternBatch out(rows_, inputs.num_patterns());
  logic::lanes::nor_plane_sweep(sweep_rows(),
                                static_cast<std::uint64_t>(rows_),
                                sweep_terms(), inputs, out);
  return out;
}

long long GnorPlane::active_cells() const {
  long long count = 0;
  for (const CellConfig c : cells_) {
    count += c != CellConfig::kOff;
  }
  return count;
}

std::string GnorPlane::to_ascii() const {
  std::string art;
  art.reserve(static_cast<std::size_t>(rows_) *
              (static_cast<std::size_t>(cols_) + 1));
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      switch (cell(r, c)) {
        case CellConfig::kPass: art += '+'; break;
        case CellConfig::kInvert: art += '-'; break;
        case CellConfig::kOff: art += '.'; break;
      }
    }
    art += '\n';
  }
  return art;
}

}  // namespace ambit::core
