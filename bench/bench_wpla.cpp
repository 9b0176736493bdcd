// Whirlpool PLA (paper §5, reference [1]): "The cascade of 4 NOR plane
// instead of 2 makes the implementation of WPLAs ... possible. WPLAs
// outperform other PLA types and a more compact implementation can be
// obtained by using ... Doppio-Espresso."
//
// Synthesizes flat two-plane GNOR PLAs and four-plane WPLAs for a
// suite of structured control-style functions and compares cell
// counts; every WPLA is verified exhaustively against the original,
// and the bench exits 1 when any row's "equivalent" column reads NO.
#include <cstdio>

#include "core/wpla.h"
#include "logic/truth_table.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

using namespace ambit;
using logic::Cover;
using logic::Cube;
using logic::Literal;

namespace {

/// Control-style function generator: `shared` products over the low
/// half of the inputs feed all outputs; each output adds `private_p`
/// products over the high half.
Cover structured(int ni, int no, int shared, int private_p,
                 std::uint64_t seed) {
  Rng rng(seed);
  Cover f(ni, no);
  const int half = ni / 2;
  for (int s = 0; s < shared; ++s) {
    Cube c(ni, no);
    for (int i = 0; i < half; ++i) {
      if (rng.next_bool(0.7)) {
        c.set_input(i, rng.next_bool() ? Literal::kOne : Literal::kZero);
      }
    }
    if (c.input_literal_count() == 0) {
      c.set_input(static_cast<int>(s % half), Literal::kOne);
    }
    for (int j = 0; j < no; ++j) {
      c.set_output(j, true);
    }
    f.add(c);
  }
  // Output 0 is exactly the shared SOP (the OR-divisor); the others
  // add private products on the high half of the inputs.
  for (int j = 1; j < no; ++j) {
    for (int s = 0; s < private_p; ++s) {
      Cube c(ni, no);
      for (int i = half; i < ni; ++i) {
        if (rng.next_bool(0.6)) {
          c.set_input(i, rng.next_bool() ? Literal::kOne : Literal::kZero);
        }
      }
      if (c.input_literal_count() == 0) {
        c.set_input(half + (s % (ni - half)), Literal::kZero);
      }
      c.set_output(j, true);
      f.add(c);
    }
  }
  f.sort_and_dedup();
  return f;
}

bool verify(const Cover& f, const core::WplaSynthesis& synth) {
  // Exhaustive check through the bit-parallel Evaluator batch path.
  const core::Wpla wpla(synth.stage_a, synth.stage_b, f.num_inputs());
  return equivalent(wpla, logic::TruthTable::from_cover(f));
}

}  // namespace

int main() {
  std::printf("=== Whirlpool PLA vs flat PLA (Doppio-Espresso, ref [1]) ===\n\n");
  TextTable table({"function", "i", "o", "intermediates", "flat cells",
                   "WPLA cells", "saving", "equivalent"});
  double total_flat = 0;
  double total_wpla = 0;
  bool all_equivalent = true;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Cover f = structured(10, 4, 5, 2, seed);
    const auto synth = core::synthesize_wpla(f);
    const bool ok = verify(f, synth);
    all_equivalent = all_equivalent && ok;
    total_flat += static_cast<double>(synth.flat_cells);
    total_wpla += static_cast<double>(synth.wpla_cells);
    table.add_row(
        {"ctrl" + std::to_string(seed), std::to_string(f.num_inputs()),
         std::to_string(f.num_outputs()),
         std::to_string(synth.intermediate_outputs.size()),
         std::to_string(synth.flat_cells), std::to_string(synth.wpla_cells),
         format_percent(static_cast<double>(synth.wpla_cells) /
                            static_cast<double>(synth.flat_cells) -
                        1.0),
         ok ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("suite total: %.0f -> %.0f cells (%s) with all four-plane\n"
              "cascades verified exhaustively. The GNOR array's per-plane\n"
              "polarity freedom is what lets all four planes be plain NOR\n"
              "planes (the paper's enabling argument for WPLA).\n",
              total_flat, total_wpla,
              format_percent(total_wpla / total_flat - 1.0).c_str());
  std::printf("every WPLA equivalent to its function: %s\n",
              all_equivalent ? "yes" : "NO");
  return all_equivalent ? 0 : 1;
}
