#include "core/gnor_pla.h"

#include <algorithm>
#include <memory>

#include "logic/lane_kernels.h"
#include "util/error.h"

namespace ambit::core {

using logic::Cover;
using logic::Literal;

GnorPla::GnorPla(int num_inputs, int num_products, int num_outputs)
    : plane1_(num_products, num_inputs),
      plane2_(num_outputs, num_products),
      buffer_inverted_(static_cast<std::size_t>(num_outputs), true) {}

GnorPla GnorPla::map_cover(const Cover& cover,
                           const std::vector<bool>& complemented) {
  check(complemented.empty() ||
            static_cast<int>(complemented.size()) == cover.num_outputs(),
        "GnorPla::map_cover: phase vector arity mismatch");
  GnorPla pla(cover.num_inputs(), static_cast<int>(cover.size()),
              cover.num_outputs());

  for (int k = 0; k < static_cast<int>(cover.size()); ++k) {
    const auto& cube = cover[static_cast<std::size_t>(k)];
    for (int i = 0; i < cover.num_inputs(); ++i) {
      switch (cube.input(i)) {
        case Literal::kOne:
          // P needs x̄ inside the NOR -> p-type cell inverts.
          pla.plane1_.set_cell(k, i, CellConfig::kInvert);
          break;
        case Literal::kZero:
          pla.plane1_.set_cell(k, i, CellConfig::kPass);
          break;
        default:
          pla.plane1_.set_cell(k, i, CellConfig::kOff);
          break;
      }
    }
    for (int o = 0; o < cover.num_outputs(); ++o) {
      if (cube.output(o)) {
        pla.plane2_.set_cell(o, k, CellConfig::kPass);
      }
    }
  }
  for (int o = 0; o < cover.num_outputs(); ++o) {
    const bool phase_complemented =
        !complemented.empty() && complemented[static_cast<std::size_t>(o)];
    // Plane-2 row carries ¬g_o (g = the cover's function for o). The
    // inverting tap restores g; if the cover implements f̄ (complemented
    // phase), the non-inverting tap yields f directly.
    pla.buffer_inverted_[static_cast<std::size_t>(o)] = !phase_complemented;
  }
  return pla;
}

bool GnorPla::buffer_inverted(int output) const {
  check(output >= 0 && output < num_outputs(),
        "GnorPla::buffer_inverted: index out of range");
  return buffer_inverted_[static_cast<std::size_t>(output)];
}

void GnorPla::set_buffer_inverted(int output, bool inverted) {
  check(output >= 0 && output < num_outputs(),
        "GnorPla::set_buffer_inverted: index out of range");
  buffer_inverted_[static_cast<std::size_t>(output)] = inverted;
}

std::vector<bool> GnorPla::evaluate_products(
    const std::vector<bool>& inputs) const {
  return plane1_.evaluate(inputs);
}

std::vector<bool> GnorPla::do_evaluate(const std::vector<bool>& inputs) const {
  const std::vector<bool> products = plane1_.evaluate(inputs);
  std::vector<bool> rows = plane2_.evaluate(products);
  for (int o = 0; o < num_outputs(); ++o) {
    if (buffer_inverted_[static_cast<std::size_t>(o)]) {
      rows[static_cast<std::size_t>(o)] = !rows[static_cast<std::size_t>(o)];
    }
  }
  return rows;
}

logic::PatternBatch GnorPla::do_evaluate_batch(
    const logic::PatternBatch& inputs) const {
  logic::PatternBatch out(num_outputs(), inputs.num_patterns());
  do_evaluate_words(inputs, out, 0, inputs.words_per_lane());
  return out;
}

void GnorPla::do_evaluate_words(const logic::PatternBatch& inputs,
                                logic::PatternBatch& out,
                                std::uint64_t word_lo,
                                std::uint64_t word_hi) const {
  using logic::lanes::SweepRow;
  const logic::lanes::LaneKernels& kernels = logic::lanes::kernels();
  const std::uint64_t words = inputs.words_per_lane();
  const auto products = static_cast<std::uint64_t>(num_products());
  const std::uint64_t tile = logic::lanes::tile_words(products, word_hi - word_lo);
  // One tile of every product line; every word is written before it is
  // read, so it needs no zeroing.
  const auto product_tile =
      std::make_unique_for_overwrite<std::uint64_t[]>(products * tile);
  for (std::uint64_t w = word_lo; w < word_hi; w += tile) {
    const std::uint64_t n = std::min(tile, word_hi - w);
    const std::uint64_t tail_mask =
        w + n == words ? inputs.tail_mask() : ~std::uint64_t{0};
    kernels.plane_sweep(plane1_.sweep_rows(), products, plane1_.sweep_terms(),
                        num_inputs() > 0 ? inputs.lane(0) + w : nullptr,
                        words, static_cast<std::uint64_t>(num_inputs()),
                        product_tile.get(), tile, n, tail_mask);
    for (int o = 0; o < num_outputs(); ++o) {
      // The row carries ¬g_o; an inverting buffer tap cancels the NOR's
      // complement, so it keeps the raw OR instead of a second pass.
      SweepRow row = plane2_.sweep_rows()[o];
      row.complement = !buffer_inverted_[static_cast<std::size_t>(o)];
      kernels.plane_sweep(&row, 1, plane2_.sweep_terms(), product_tile.get(),
                          tile, products, out.lane(o) + w, words, n,
                          tail_mask);
    }
  }
}

tech::PlaDimensions GnorPla::dimensions() const {
  return tech::PlaDimensions{.inputs = num_inputs(),
                             .outputs = num_outputs(),
                             .products = num_products()};
}

long long GnorPla::cell_count() const {
  return plane1_.cell_count() + plane2_.cell_count();
}

long long GnorPla::active_cells() const {
  return plane1_.active_cells() + plane2_.active_cells();
}

std::string GnorPla::to_ascii() const {
  std::string art = "product plane (rows=products, cols=inputs):\n";
  art += plane1_.to_ascii();
  art += "output plane (rows=outputs, cols=products):\n";
  art += plane2_.to_ascii();
  return art;
}

}  // namespace ambit::core
