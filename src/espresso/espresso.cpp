#include "espresso/espresso.h"

#include "espresso/expand.h"
#include "espresso/irredundant.h"
#include "espresso/reduce.h"
#include "espresso/unate.h"
#include "util/error.h"

namespace ambit::espresso {

using logic::Cover;

CoverCost cost_of(const Cover& f) {
  CoverCost cost;
  cost.cubes = f.size();
  cost.input_literals = f.total_literals();
  for (const auto& c : f) {
    cost.output_literals += c.output_count();
  }
  return cost;
}

EspressoResult minimize(const Cover& onset, const Cover& dcset,
                        const EspressoOptions& options) {
  check(onset.num_inputs() == dcset.num_inputs() &&
            onset.num_outputs() == dcset.num_outputs(),
        "espresso: onset/dcset shape mismatch");

  EspressoResult result;
  result.stats.initial_cubes = onset.size();

  Cover f = onset;
  f.sort_and_dedup();
  f.remove_single_cube_contained();
  if (f.empty()) {
    result.cover = f;
    return result;
  }

  const Cover off = offset(onset, dcset);

  f = expand(f, off);
  result.stats.after_first_expand = f.size();
  f = irredundant(f, dcset);

  Cover best = f;
  CoverCost best_cost = cost_of(best);

  for (int loop = 0; loop < options.max_loops; ++loop) {
    f = reduce(f, dcset);
    f = expand(f, off);
    f = irredundant(f, dcset);
    ++result.stats.loops;
    const CoverCost cost = cost_of(f);
    if (cost < best_cost) {
      best = f;
      best_cost = cost;
    } else {
      break;
    }
  }

  best.sort_and_dedup();
  result.cover = std::move(best);
  result.stats.final_cubes = result.cover.size();
  return result;
}

EspressoResult minimize(const Cover& onset, const EspressoOptions& options) {
  const Cover empty_dc(onset.num_inputs(), onset.num_outputs());
  return minimize(onset, empty_dc, options);
}

}  // namespace ambit::espresso
