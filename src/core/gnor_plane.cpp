#include "core/gnor_plane.h"

#include <vector>

#include "util/error.h"

namespace ambit::core {

GnorPlane::GnorPlane(int rows, int cols)
    : rows_(rows), cols_(cols), compiled_(rows, cols) {
  cells_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
                CellConfig::kOff);
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
  // Disconnect the polarity the cell does not have first, so a row
  // never holds more terms than columns; off disconnects both.
  compiled_.connect(row, {.lane = col, .invert = config != CellConfig::kInvert},
                    false);
  compiled_.connect(row, {.lane = col, .invert = config == CellConfig::kInvert},
                    config != CellConfig::kOff);
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
  const SweepStage stage = compiled_.stage(static_cast<std::uint64_t>(cols_),
                                           kCallerLanes, kCallerLanes);
  SweepProgram{{&stage, 1}}.run(inputs, out, 0, inputs.words_per_lane());
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
