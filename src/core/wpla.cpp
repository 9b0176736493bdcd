#include "core/wpla.h"

#include <algorithm>
#include <set>

#include "espresso/espresso.h"
#include "logic/truth_table.h"
#include "util/error.h"

namespace ambit::core {

using logic::Cover;
using logic::Cube;
using logic::Literal;

Wpla::Wpla(const Cover& stage_a, const Cover& stage_b, int primary_inputs)
    : primary_inputs_(primary_inputs),
      stage_a_(GnorPla::map_cover(stage_a)),
      stage_b_(GnorPla::map_cover(stage_b)) {
  check(stage_a.num_inputs() == primary_inputs,
        "Wpla: stage A must read the primary inputs");
  check(stage_b.num_inputs() == primary_inputs + stage_a.num_outputs(),
        "Wpla: stage B must read primary inputs + intermediates");
}

std::vector<bool> Wpla::do_evaluate(const std::vector<bool>& inputs) const {
  const std::vector<bool> g = stage_a_.evaluate(inputs);
  std::vector<bool> extended = inputs;
  extended.insert(extended.end(), g.begin(), g.end());
  return stage_b_.evaluate(extended);
}

void Wpla::do_evaluate_words(const logic::PatternBatch& inputs,
                             logic::PatternBatch& out, std::uint64_t word_lo,
                             std::uint64_t word_hi) const {
  // Tile lanes [primary inputs | G | A's products | B's products].
  const auto g = static_cast<std::uint64_t>(primary_inputs_);
  const auto products_a = g + static_cast<std::uint64_t>(num_intermediates());
  const auto products_b =
      products_a + static_cast<std::uint64_t>(stage_a_.num_products());
  const auto a = stage_a_.sweep_stages(kCallerLanes, products_a, g);
  const auto b = stage_b_.sweep_stages(0, products_b, kCallerLanes);
  const SweepStage stages[] = {a[0], a[1], b[0], b[1]};
  SweepProgram{stages, /*stage_inputs=*/true}.run(inputs, out, word_lo,
                                                   word_hi);
}

long long Wpla::cell_count() const {
  return stage_a_.cell_count() + stage_b_.cell_count();
}

WplaSynthesis synthesize_wpla(const Cover& onset) {
  const int ni = onset.num_inputs();
  const int no = onset.num_outputs();
  WplaSynthesis result;

  // Planes are sized to the signals actually routed into them (the
  // Fig. 3 crossbars deliver only used columns), so cell accounting
  // counts USED input columns, not the nominal input count.
  const auto used_inputs = [](const Cover& c) {
    int used = 0;
    for (int i = 0; i < c.num_inputs(); ++i) {
      const auto occ = c.var_occurrence(i);
      used += (occ.zeros + occ.ones) > 0;
    }
    return used;
  };

  const Cover flat = espresso::minimize(onset).cover;
  const int p0 = static_cast<int>(flat.size());
  result.flat_cells = static_cast<long long>(used_inputs(flat) + no) * p0;

  // Product sets per output (indices into `flat`).
  std::vector<std::set<int>> products_of(static_cast<std::size_t>(no));
  for (int k = 0; k < p0; ++k) {
    for (int j = 0; j < no; ++j) {
      if (flat[static_cast<std::size_t>(k)].output(j)) {
        products_of[static_cast<std::size_t>(j)].insert(k);
      }
    }
  }

  // Candidate divisors: g whose product set is contained in some other
  // output's set (then f = g OR remainder) and has >= 2 products.
  const auto divides = [&](int g, int f) {
    return g != f && products_of[static_cast<std::size_t>(g)].size() >= 2 &&
           !products_of[static_cast<std::size_t>(g)].empty() &&
           std::includes(products_of[static_cast<std::size_t>(f)].begin(),
                         products_of[static_cast<std::size_t>(f)].end(),
                         products_of[static_cast<std::size_t>(g)].begin(),
                         products_of[static_cast<std::size_t>(g)].end());
  };

  // Input columns used by a set of flat-cover products.
  const auto used_by_products = [&](const std::set<int>& products) {
    int used = 0;
    for (int i = 0; i < ni; ++i) {
      for (const int k : products) {
        const Literal lit = flat[static_cast<std::size_t>(k)].input(i);
        if (lit == Literal::kZero || lit == Literal::kOne) {
          ++used;
          break;
        }
      }
    }
    return used;
  };

  // Cell cost of a chosen intermediate set G under the file-comment
  // accounting (used columns only).
  const auto cells_for = [&](const std::vector<int>& chosen) -> long long {
    if (chosen.empty()) {
      return result.flat_cells;
    }
    std::set<int> stage_a_products;
    for (const int g : chosen) {
      stage_a_products.insert(products_of[static_cast<std::size_t>(g)].begin(),
                              products_of[static_cast<std::size_t>(g)].end());
    }
    // Remaining stage-B products: every product still needed directly.
    std::set<int> remaining;
    for (int f = 0; f < no; ++f) {
      if (std::find(chosen.begin(), chosen.end(), f) != chosen.end()) {
        continue;  // intermediate: forwarded, no direct products
      }
      std::set<int> keep = products_of[static_cast<std::size_t>(f)];
      for (const int g : chosen) {
        if (divides(g, f)) {
          for (const int k : products_of[static_cast<std::size_t>(g)]) {
            keep.erase(k);
          }
        }
      }
      remaining.insert(keep.begin(), keep.end());
    }
    const long long k = static_cast<long long>(chosen.size());
    const long long pa = static_cast<long long>(stage_a_products.size());
    const long long pb = static_cast<long long>(remaining.size()) + k;
    const long long ia = used_by_products(stage_a_products);
    const long long ib = used_by_products(remaining);
    return (ia + k) * pa + (ib + k + no) * pb;
  };

  // Greedy selection: add the divisor that lowers the cell count most.
  std::vector<int> chosen;
  long long best_cells = result.flat_cells;
  for (;;) {
    int best_g = -1;
    long long best_trial = best_cells;
    for (int g = 0; g < no; ++g) {
      if (std::find(chosen.begin(), chosen.end(), g) != chosen.end()) {
        continue;
      }
      bool useful = false;
      for (int f = 0; f < no && !useful; ++f) {
        useful = divides(g, f) &&
                 std::find(chosen.begin(), chosen.end(), f) == chosen.end();
      }
      if (!useful) {
        continue;
      }
      std::vector<int> trial = chosen;
      trial.push_back(g);
      const long long cells = cells_for(trial);
      if (cells < best_trial) {
        best_trial = cells;
        best_g = g;
      }
    }
    if (best_g < 0) {
      break;
    }
    chosen.push_back(best_g);
    best_cells = best_trial;
  }
  std::sort(chosen.begin(), chosen.end());
  result.intermediate_outputs = chosen;

  const int k = static_cast<int>(chosen.size());
  const auto g_index = [&](int output) {
    return static_cast<int>(std::find(chosen.begin(), chosen.end(), output) -
                            chosen.begin());
  };

  // --- Stage A cover: the union of divisor products over k outputs ---
  Cover stage_a(ni, std::max(k, 1));
  if (k > 0) {
    std::set<int> stage_a_products;
    for (const int g : chosen) {
      stage_a_products.insert(products_of[static_cast<std::size_t>(g)].begin(),
                              products_of[static_cast<std::size_t>(g)].end());
    }
    for (const int pk : stage_a_products) {
      Cube c(ni, k);
      for (int i = 0; i < ni; ++i) {
        c.set_input(i, flat[static_cast<std::size_t>(pk)].input(i));
      }
      for (const int g : chosen) {
        if (products_of[static_cast<std::size_t>(g)].count(pk) > 0) {
          c.set_output(g_index(g), true);
        }
      }
      stage_a.add(std::move(c));
    }
  }

  // --- Stage B cover over (primary inputs + k intermediates) ---
  const int nb = ni + std::max(k, 1);
  Cover stage_b(nb, no);
  // Direct products still needed, with their surviving output bits.
  std::set<int> remaining;
  std::vector<std::set<int>> kept_of(static_cast<std::size_t>(no));
  for (int f = 0; f < no; ++f) {
    if (std::find(chosen.begin(), chosen.end(), f) != chosen.end()) {
      continue;
    }
    std::set<int> keep = products_of[static_cast<std::size_t>(f)];
    for (const int g : chosen) {
      if (divides(g, f)) {
        for (const int pk : products_of[static_cast<std::size_t>(g)]) {
          keep.erase(pk);
        }
      }
    }
    kept_of[static_cast<std::size_t>(f)] = keep;
    remaining.insert(keep.begin(), keep.end());
  }
  for (const int pk : remaining) {
    Cube c(nb, no);
    for (int i = 0; i < ni; ++i) {
      c.set_input(i, flat[static_cast<std::size_t>(pk)].input(i));
    }
    bool used = false;
    for (int f = 0; f < no; ++f) {
      if (kept_of[static_cast<std::size_t>(f)].count(pk) > 0) {
        c.set_output(f, true);
        used = true;
      }
    }
    if (used) {
      stage_b.add(std::move(c));
    }
  }
  // One single-literal product per intermediate: feeds the forwarded
  // output g and every output it divides.
  for (const int g : chosen) {
    Cube c(nb, no);
    c.set_input(ni + g_index(g), Literal::kOne);
    c.set_output(g, true);
    for (int f = 0; f < no; ++f) {
      if (divides(g, f) &&
          std::find(chosen.begin(), chosen.end(), f) == chosen.end()) {
        c.set_output(f, true);
      }
    }
    stage_b.add(std::move(c));
  }

  // Doppio: a second Espresso pass on each stage.
  if (!stage_a.empty()) {
    stage_a = espresso::minimize(stage_a).cover;
  }
  if (!stage_b.empty()) {
    stage_b = espresso::minimize(stage_b).cover;
  }

  result.stage_a = std::move(stage_a);
  result.stage_b = std::move(stage_b);
  // Exhaustive equivalence check of the four-plane cascade against the
  // minimized flat cover, through the bit-parallel batch path. Beyond
  // 16 inputs the 2^n sweep stops being free and callers verify
  // externally.
  if (ni <= 16) {
    require(equivalent(Wpla(result.stage_a, result.stage_b, ni),
                       logic::TruthTable::from_cover(flat)),
            "synthesize_wpla: cascade not equivalent to the flat cover");
  }
  // Same used-column accounting as flat_cells (the G columns of stage
  // B are always used; count them via used_inputs over all nb inputs).
  result.wpla_cells =
      static_cast<long long>(used_inputs(result.stage_a) + std::max(k, 1)) *
          static_cast<long long>(result.stage_a.size()) +
      static_cast<long long>(used_inputs(result.stage_b) + no) *
          static_cast<long long>(result.stage_b.size());
  return result;
}

}  // namespace ambit::core
