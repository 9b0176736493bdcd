// EXPAND: raise every cube to a prime implicant against the OFF-set.
//
// Each cube of the cover is expanded — input literals lifted to
// don't-care and extra output bits raised — as long as the grown cube
// stays disjoint from every OFF-set cube that shares an output with it.
// Cubes that become (bitwise) contained in an expanded prime are
// dropped, which is where EXPAND reduces cover cardinality.
//
// Cost: expand() indexes the OFF-set by output once, so each cube reads
// only the OFF-set cubes of its own outputs as blockers (bit masks of
// the parts it misses them at) and settles every output it could raise
// with one pass over the OFF-set cubes its expanded input part meets.
#pragma once

#include "logic/cover.h"

namespace ambit::espresso {

/// Expands every cube of `f` into a prime against blocking matrix
/// `off` (as produced by offset()), dropping cubes covered along the
/// way. Deterministic: processing order is by descending literal
/// count with lexicographic tie-break.
logic::Cover expand(const logic::Cover& f, const logic::Cover& off);

/// Expands a single cube to a prime against `off`. Exposed for tests.
logic::Cube expand_cube(const logic::Cube& cube, const logic::Cover& off);

}  // namespace ambit::espresso
