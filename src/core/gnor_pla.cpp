#include "core/gnor_pla.h"

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

std::array<SweepStage, 2> GnorPla::sweep_stages(std::uint64_t from,
                                                std::uint64_t products,
                                                std::uint64_t to) const {
  return {plane1_.compiled().stage(static_cast<std::uint64_t>(num_inputs()),
                                   from, products),
          plane2_.compiled().stage(static_cast<std::uint64_t>(num_products()),
                                   products, to, &buffer_inverted_)};
}

void GnorPla::do_evaluate_words(const logic::PatternBatch& inputs,
                                logic::PatternBatch& out,
                                std::uint64_t word_lo,
                                std::uint64_t word_hi) const {
  const auto stages = sweep_stages(kCallerLanes, 0, kCallerLanes);
  SweepProgram{stages}.run(inputs, out, word_lo, word_hi);
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
