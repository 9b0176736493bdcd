#include "espresso/reduce.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "espresso/unate.h"
#include "util/error.h"

namespace ambit::espresso {

using logic::Cover;
using logic::Cube;

Cover reduce(const Cover& f, const Cover& d) {
  check(f.num_inputs() == d.num_inputs() && f.num_outputs() == d.num_outputs(),
        "reduce: shape mismatch");
  const int ni = f.num_inputs();
  const int no = f.num_outputs();

  // Espresso reduces the largest cubes first: they have the most room
  // to shrink, freeing space for the others.
  std::vector<Cube> cubes(f.cubes());
  std::vector<std::size_t> order(cubes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const int la = cubes[a].input_literal_count();
    const int lb = cubes[b].input_literal_count();
    if (la != lb) {
      return la < lb;  // fewest literals = largest cube first
    }
    return Cube::lexicographic_less(cubes[a], cubes[b]);
  });

  std::vector<bool> alive(cubes.size(), true);
  Cube c_input = Cube::universe(ni, 1);
  Cube single = Cube::universe(ni, 1);
  for (const std::size_t idx : order) {
    const Cube& c = cubes[idx];
    c_input.set_inputs_from(c);

    // Per asserted output: what does c cover that nobody else does?
    std::optional<Cube> acc_super;  // union of the SCCCs (inputs only)
    Cube lowered = c;
    for (int j = 0; j < no; ++j) {
      if (!c.output(j)) {
        continue;
      }
      // The rest of the cover plus the don't-cares, restricted to
      // output j and cofactored against c's inputs.
      Cover remainder(ni, 1);
      const auto add_cofactor = [&](const Cube& r) {
        single.set_inputs_from(r);
        if (single.intersects(c_input)) {
          remainder.add(single.cofactor(c_input));
        }
      };
      for (std::size_t i = 0; i < cubes.size(); ++i) {
        if (i != idx && alive[i] && cubes[i].output(j)) {
          add_cofactor(cubes[i]);
        }
      }
      for (const Cube& dc : d) {
        if (dc.output(j)) {
          add_cofactor(dc);
        }
      }
      if (acc_super.has_value() && acc_super->input_contains(c_input)) {
        // The accumulated supercube already spans c, so only whether
        // output j still needs c is open.
        if (tautology(remainder)) {
          lowered.set_output(j, false);
        }
        continue;
      }
      const std::optional<Cube> sccc = complement_supercube(remainder);
      if (!sccc.has_value()) {
        // Remainder is a tautology inside c: output j no longer needs c.
        lowered.set_output(j, false);
        continue;
      }
      acc_super = acc_super.has_value() ? acc_super->supercube(*sccc) : *sccc;
    }

    if (lowered.output_empty()) {
      alive[idx] = false;
      continue;
    }
    require(acc_super.has_value(), "reduce: kept outputs but no uncovered part");
    // Shrink the input part onto the uniquely covered region.
    lowered.intersect_inputs(*acc_super);
    require(!lowered.input_empty(), "reduce: produced empty input part");
    cubes[idx] = std::move(lowered);
  }

  Cover result(ni, no);
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    if (alive[i]) {
      result.add(cubes[i]);
    }
  }
  return result;
}

}  // namespace ambit::espresso
