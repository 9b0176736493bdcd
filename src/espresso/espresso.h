// The Espresso two-level minimization loop.
//
// minimize() runs the classical iteration
//
//     EXPAND -> IRREDUNDANT -> ( REDUCE -> EXPAND -> IRREDUNDANT )*
//
// until the cover cost (cube count, then input literals, then output
// literals) stops improving, and returns the best cover seen. The
// result is a prime, irredundant cover of the same function:
//
//     onset  ⊆  result  ⊆  onset ∪ dcset     (semantically)
//
// This is the minimizer the paper relies on for Table 1 ("The area of
// the PLA implementing three functions from the MCNC suite"), for the
// Sasao-style phase optimization it cites ([7]), and for the
// Doppio-Espresso WPLA synthesis ([1]).
#pragma once

#include <cstddef>

#include "logic/cover.h"

namespace ambit::espresso {

/// Tuning knobs; defaults reproduce the standard loop.
struct EspressoOptions {
  /// Upper bound on REDUCE/EXPAND/IRREDUNDANT iterations; 0 runs a
  /// single EXPAND+IRREDUNDANT pass with no REDUCE.
  int max_loops = 16;
};

/// Run statistics for reporting and tests.
struct EspressoStats {
  std::size_t initial_cubes = 0;
  std::size_t after_first_expand = 0;
  std::size_t final_cubes = 0;
  int loops = 0;  ///< REDUCE iterations actually executed
};

/// Minimization result: the cover plus statistics.
struct EspressoResult {
  logic::Cover cover;
  EspressoStats stats;

  EspressoResult() : cover(0, 1) {}
};

/// Cover cost used to compare candidate solutions.
struct CoverCost {
  std::size_t cubes = 0;
  int input_literals = 0;
  int output_literals = 0;

  friend bool operator<(const CoverCost& a, const CoverCost& b) {
    if (a.cubes != b.cubes) return a.cubes < b.cubes;
    if (a.input_literals != b.input_literals) {
      return a.input_literals < b.input_literals;
    }
    return a.output_literals < b.output_literals;
  }
  friend bool operator==(const CoverCost& a, const CoverCost& b) {
    return a.cubes == b.cubes && a.input_literals == b.input_literals &&
           a.output_literals == b.output_literals;
  }
};

/// Computes the cost triple of a cover.
CoverCost cost_of(const logic::Cover& f);

/// Minimizes `onset` under don't-cares `dcset` (same shape, may be
/// empty). Deterministic for a given input.
EspressoResult minimize(const logic::Cover& onset, const logic::Cover& dcset,
                        const EspressoOptions& options = {});

/// Convenience overload with an empty don't-care set.
EspressoResult minimize(const logic::Cover& onset,
                        const EspressoOptions& options = {});

}  // namespace ambit::espresso
