#include "core/sweep_program.h"

#include <algorithm>
#include <memory>
#include <tuple>

#include "util/error.h"

namespace ambit::core {

using logic::lanes::SweepRow;
using logic::lanes::SweepTerm;

void SweepProgram::run(const logic::PatternBatch& inputs,
                       logic::PatternBatch& out, std::uint64_t word_lo,
                       std::uint64_t word_hi) const {
  const logic::lanes::LaneKernels& kernels = logic::lanes::kernels();
  const std::uint64_t words = inputs.words_per_lane();
  const auto num_inputs = static_cast<std::uint64_t>(inputs.num_signals());
  std::uint64_t tile_lanes = stage_inputs ? num_inputs : 0;
  std::uint64_t read_lanes = 0;
  for (const SweepStage& s : stages) {
    if (s.to != kCallerLanes) {
      tile_lanes = std::max(tile_lanes, s.to + s.num_rows);
    }
    read_lanes = std::max(read_lanes, s.num_lanes);
  }
  // The tile fits the larger of the scratch lanes and the most lanes one
  // stage reads, so every kernel call sweeps exactly one cache tile.
  const std::uint64_t tile = logic::lanes::tile_words(
      std::max(tile_lanes, read_lanes), word_hi - word_lo);
  // Every tile word is written before it is read, so it needs no
  // zeroing.
  const auto scratch =
      std::make_unique_for_overwrite<std::uint64_t[]>(tile_lanes * tile);
  for (std::uint64_t w = word_lo; w < word_hi; w += tile) {
    const std::uint64_t n = std::min(tile, word_hi - w);
    const std::uint64_t tail_mask =
        w + n == words ? inputs.tail_mask() : ~std::uint64_t{0};
    for (std::uint64_t i = 0; stage_inputs && i < num_inputs; ++i) {
      std::copy_n(inputs.lane(static_cast<int>(i)) + w, n,
                  scratch.get() + i * tile);
    }
    for (const SweepStage& s : stages) {
      if (s.num_rows == 0) {
        continue;  // nothing to write, and `out` may have no lane 0
      }
      const std::uint64_t* in = s.from != kCallerLanes
                                    ? scratch.get() + s.from * tile
                                : num_inputs > 0 ? inputs.lane(0) + w
                                                 : nullptr;
      std::uint64_t* dst = s.to != kCallerLanes ? scratch.get() + s.to * tile
                                                : out.lane(0) + w;
      const std::uint64_t in_stride = s.from != kCallerLanes ? tile : words;
      const std::uint64_t dst_stride = s.to != kCallerLanes ? tile : words;
      if (s.taps == nullptr) {
        kernels.plane_sweep(s.rows, s.num_rows, s.terms, in, in_stride, dst,
                            dst_stride, n, tail_mask);
        continue;
      }
      for (std::uint64_t r = 0; r < s.num_rows; ++r) {
        SweepRow row = s.rows[r];
        row.complement = row.complement != (*s.taps)[r];
        kernels.plane_sweep(&row, 1, s.terms, in, in_stride,
                            dst + r * dst_stride, dst_stride, n, tail_mask);
      }
    }
  }
}

CompiledPlane::CompiledPlane(int rows, int slots_per_row)
    : slots_(static_cast<std::uint64_t>(slots_per_row)) {
  check(rows >= 0 && slots_per_row >= 0, "CompiledPlane: negative dimensions");
  rows_.resize(static_cast<std::size_t>(rows));
  terms_.resize(rows_.size() * slots_);
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    rows_[r] = {.first_term = r * slots_, .num_terms = 0, .complement = true};
  }
}

void CompiledPlane::connect(int row, SweepTerm term, bool connected) {
  SweepRow& sweep = rows_[static_cast<std::size_t>(row)];
  SweepTerm* first = terms_.data() + sweep.first_term;
  SweepTerm* last = first + sweep.num_terms;
  const auto before = [](const SweepTerm& a, const SweepTerm& b) {
    return std::tie(a.lane, a.invert) < std::tie(b.lane, b.invert);
  };
  SweepTerm* at = std::lower_bound(first, last, term, before);
  if (connected == (at != last && !before(term, *at))) {
    return;  // already as asked
  }
  if (connected) {
    check(sweep.num_terms < slots_, "CompiledPlane: row is full");
    std::copy_backward(at, last, last + 1);
    *at = term;
    ++sweep.num_terms;
  } else {
    std::copy(at + 1, last, at);
    --sweep.num_terms;
  }
}

}  // namespace ambit::core
