#include "core/classical_pla.h"

#include <vector>

#include "core/gnor_pla.h"
#include "util/error.h"

namespace ambit::core {

using logic::Cover;

ClassicalPla::ClassicalPla(int num_inputs, int num_products, int num_outputs)
    : num_inputs_(num_inputs),
      num_products_(num_products),
      num_outputs_(num_outputs),
      and_plane_(static_cast<std::size_t>(num_products) *
                     static_cast<std::size_t>(2 * num_inputs),
                 false),
      or_plane_(static_cast<std::size_t>(num_outputs) *
                    static_cast<std::size_t>(num_products),
                false),
      buffer_inverted_(static_cast<std::size_t>(num_outputs), true),
      and_compiled_(num_products, 2 * num_inputs),
      or_compiled_(num_outputs, num_products) {
  check(num_inputs >= 0 && num_products >= 0 && num_outputs >= 0,
        "ClassicalPla: negative dimensions");
}

ClassicalPla ClassicalPla::map_cover(const Cover& cover,
                                     const std::vector<bool>& complemented) {
  // The GNOR mapping with every p-type cell (P = …x… = NOR(…, x̄, …))
  // moved onto the complement rail and every n-type cell onto the true
  // rail.
  const GnorPla gnor = GnorPla::map_cover(cover, complemented);
  ClassicalPla pla(gnor.num_inputs(), gnor.num_products(),
                   gnor.num_outputs());
  for (int k = 0; k < pla.num_products_; ++k) {
    for (int i = 0; i < pla.num_inputs_; ++i) {
      const CellConfig cell = gnor.product_plane().cell(k, i);
      if (cell != CellConfig::kOff) {
        pla.set_and_plane(k, 2 * i + (cell == CellConfig::kInvert), true);
      }
    }
    for (int o = 0; o < pla.num_outputs_; ++o) {
      pla.set_or_plane(o, k, gnor.output_plane().cell(o, k) != CellConfig::kOff);
    }
  }
  for (int o = 0; o < pla.num_outputs_; ++o) {
    pla.buffer_inverted_[static_cast<std::size_t>(o)] = gnor.buffer_inverted(o);
  }
  return pla;
}

std::size_t ClassicalPla::and_index(int product, int literal_column) const {
  check(product >= 0 && product < num_products_ && literal_column >= 0 &&
            literal_column < 2 * num_inputs_,
        "ClassicalPla: and-plane index out of range");
  return static_cast<std::size_t>(product) *
             static_cast<std::size_t>(2 * num_inputs_) +
         static_cast<std::size_t>(literal_column);
}

std::size_t ClassicalPla::or_index(int output, int product) const {
  check(output >= 0 && output < num_outputs_ && product >= 0 &&
            product < num_products_,
        "ClassicalPla: or-plane index out of range");
  return static_cast<std::size_t>(output) *
             static_cast<std::size_t>(num_products_) +
         static_cast<std::size_t>(product);
}

bool ClassicalPla::and_plane_connected(int product, int literal_column) const {
  return and_plane_[and_index(product, literal_column)];
}

void ClassicalPla::set_and_plane(int product, int literal_column,
                                 bool connected) {
  and_plane_[and_index(product, literal_column)] = connected;
  and_compiled_.connect(
      product, {.lane = literal_column / 2, .invert = literal_column % 2 == 1},
      connected);
}

bool ClassicalPla::or_plane_connected(int output, int product) const {
  return or_plane_[or_index(output, product)];
}

void ClassicalPla::set_or_plane(int output, int product, bool connected) {
  or_plane_[or_index(output, product)] = connected;
  or_compiled_.connect(output, {.lane = product, .invert = false}, connected);
}

bool ClassicalPla::buffer_inverted(int output) const {
  check(output >= 0 && output < num_outputs_,
        "ClassicalPla::buffer_inverted: index out of range");
  return buffer_inverted_[static_cast<std::size_t>(output)];
}

void ClassicalPla::set_buffer_inverted(int output, bool inverted) {
  check(output >= 0 && output < num_outputs_,
        "ClassicalPla::set_buffer_inverted: index out of range");
  buffer_inverted_[static_cast<std::size_t>(output)] = inverted;
}

std::vector<bool> ClassicalPla::evaluate_products(
    const std::vector<bool>& inputs) const {
  check(static_cast<int>(inputs.size()) == num_inputs_,
        "ClassicalPla::evaluate: input arity mismatch");
  std::vector<bool> products(static_cast<std::size_t>(num_products_), true);
  for (int k = 0; k < num_products_; ++k) {
    bool pulled_down = false;
    for (int i = 0; i < num_inputs_ && !pulled_down; ++i) {
      const bool x = inputs[static_cast<std::size_t>(i)];
      // Column 2i carries x, column 2i+1 carries x̄; a connected cell
      // conducts when its rail is high.
      if (and_plane_connected(k, 2 * i) && x) {
        pulled_down = true;
      }
      if (and_plane_connected(k, 2 * i + 1) && !x) {
        pulled_down = true;
      }
    }
    products[static_cast<std::size_t>(k)] = !pulled_down;
  }
  return products;
}

std::vector<bool> ClassicalPla::do_evaluate(
    const std::vector<bool>& inputs) const {
  const std::vector<bool> products = evaluate_products(inputs);
  std::vector<bool> outputs(static_cast<std::size_t>(num_outputs_), true);
  for (int o = 0; o < num_outputs_; ++o) {
    bool pulled_down = false;
    for (int k = 0; k < num_products_ && !pulled_down; ++k) {
      pulled_down =
          or_plane_connected(o, k) && products[static_cast<std::size_t>(k)];
    }
    bool value = !pulled_down;  // NOR row
    if (buffer_inverted_[static_cast<std::size_t>(o)]) {
      value = !value;
    }
    outputs[static_cast<std::size_t>(o)] = value;
  }
  return outputs;
}

void ClassicalPla::do_evaluate_words(const logic::PatternBatch& inputs,
                                     logic::PatternBatch& out,
                                     std::uint64_t word_lo,
                                     std::uint64_t word_hi) const {
  const SweepStage stages[] = {
      and_compiled_.stage(static_cast<std::uint64_t>(num_inputs_),
                          kCallerLanes, 0),
      or_compiled_.stage(static_cast<std::uint64_t>(num_products_), 0,
                         kCallerLanes, &buffer_inverted_)};
  SweepProgram{stages}.run(inputs, out, word_lo, word_hi);
}

tech::PlaDimensions ClassicalPla::dimensions() const {
  return tech::PlaDimensions{.inputs = num_inputs_,
                             .outputs = num_outputs_,
                             .products = num_products_};
}

long long ClassicalPla::cell_count() const {
  return static_cast<long long>(2 * num_inputs_ + num_outputs_) *
         num_products_;
}

long long ClassicalPla::active_cells() const {
  long long count = 0;
  for (const bool b : and_plane_) count += b;
  for (const bool b : or_plane_) count += b;
  return count;
}

}  // namespace ambit::core
