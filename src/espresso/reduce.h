// REDUCE: shrink each prime to the smallest cube still covering what
// only it covers, so that the next EXPAND can escape the local minimum.
//
// The classical formula: c̃ = c ∩ SCCC((F ∖ {c} ∪ D) cofactor c), where
// SCCC is the smallest cube containing the complement. Multi-output
// covers additionally lower output bits: output j is dropped from c
// when the remainder already covers c for j.
//
// Cost: the SCCC comes from complement_supercube (unate.h), which
// recurses like complement() but never builds the complement; once the
// accumulated SCCC spans c, a tautology check settles the remaining
// outputs. The SCCC is unique, so the result is the same as taking the
// supercube of a materialized complement.
#pragma once

#include "logic/cover.h"

namespace ambit::espresso {

/// Sequentially reduces every cube of `f` against the rest of the
/// (partially reduced) cover plus don't-cares `d`. The result covers
/// exactly the same function as `f` (given the same `d`).
logic::Cover reduce(const logic::Cover& f, const logic::Cover& d);

}  // namespace ambit::espresso
