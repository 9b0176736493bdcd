// Unate-recursive kernels: tautology, complement, coverage.
//
// These are the classical Espresso primitives (Brayton, Hachtel,
// McMullen, Sangiovanni-Vincentelli, "Logic Minimization Algorithms for
// VLSI Synthesis", 1984) implemented over AMBIT's positional-cube
// covers:
//
//   * tautology(f)    — Shannon recursion with unate reduction;
//   * complement(f)   — Shannon recursion with branch re-merging;
//   * complement_supercube(f) — the smallest cube containing f's
//                       complement, by the same recursion without
//                       building the complement (REDUCE's SCCC);
//   * covers(g, c)    — does cover g contain cube c (per output)?
//   * offset(f, d)    — per-output complement R = (F ∪ D)', the
//                       blocking matrix that EXPAND raises against.
//
// tautology/complement operate on *single-output* covers (the
// multi-output entry points in espresso.h decompose by output first);
// covers/offset accept the full multi-output shape.
//
// Cost: every recursion node works on covers of inline-word cubes
// (logic/cube.h), so a node allocates per cover, never per cube; the
// column counts that pick the splitting variable take one pass over
// the cover, and the branch merge is keyed by the cubes' words.
// Nothing is cached between calls: concurrent callers share no state.
#pragma once

#include <optional>

#include "logic/cover.h"

namespace ambit::espresso {

/// True when the single-output cover `f` evaluates to 1 on every
/// minterm. Requires f.num_outputs() == 1 with all cubes asserting
/// output 0.
bool tautology(const logic::Cover& f);

/// Complement of a single-output cover: a cover of exactly the
/// minterms NOT covered by `f`. The result carries no redundancy
/// guarantees beyond single-cube containment cleanup.
logic::Cover complement(const logic::Cover& f);

/// Complement of one cube by De Morgan: one result cube per literal.
logic::Cover complement_cube(const logic::Cube& c);

/// The smallest cube containing the complement of the single-output
/// cover `f` (the supercube of complement(f); unique, so independent of
/// how the complement is split), or nullopt when `f` is a tautology.
std::optional<logic::Cube> complement_supercube(const logic::Cover& f);

/// True when cover `g` (multi-output, plus optional don't-care cover
/// `d`) covers cube `c`: for every output j asserted by c, the input
/// part of c is contained in (g ∪ d) restricted to j. `d` may be null.
bool covers(const logic::Cover& g, const logic::Cover* d, const logic::Cube& c);

/// The multi-output OFF-set: for each output j, the complement of
/// (onset_j ∪ dcset_j), tagged with output j alone. EXPAND treats this
/// as its blocking matrix.
logic::Cover offset(const logic::Cover& onset, const logic::Cover& dcset);

}  // namespace ambit::espresso
