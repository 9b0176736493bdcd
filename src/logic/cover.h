// A cover: an ordered list of cubes over a common (inputs, outputs) shape.
//
// Covers are AMBIT's universal currency for two-level logic: the Espresso
// minimizer transforms them, the GNOR-PLA mapper consumes them, the
// switch-level simulator is verified against them. The representation is
// a std::vector of Cubes plus shape metadata. A Cube of up to
// Cube::kInlineWords words holds its words inline, so such a cover is
// one contiguous array of fixed-stride cubes and copying or growing it
// allocates per cover, never per cube. Every operation here is one
// masked operation per word of each cube it touches. Semantic
// operations that need recursion (tautology, complement) live in
// src/espresso.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "logic/cube.h"

namespace ambit::logic {

/// Per-input-variable literal occurrence counts within a cover.
struct VarOccurrence {
  int zeros = 0;  ///< cubes with literal x̄ (Literal::kZero)
  int ones = 0;   ///< cubes with literal x (Literal::kOne)
};

/// An ordered multi-output sum-of-products.
class Cover {
 public:
  /// An empty cover (constant 0 for every output).
  Cover(int num_inputs, int num_outputs);

  /// Single universal cube: constant 1 for every output.
  static Cover universe(int num_inputs, int num_outputs);

  /// Builds a cover from Espresso-style text rows, e.g.
  /// Cover::parse(2, 1, {"10 1", "01 1"}) is EXOR.
  static Cover parse(int num_inputs, int num_outputs,
                     const std::vector<std::string>& rows);

  int num_inputs() const { return num_inputs_; }
  int num_outputs() const { return num_outputs_; }

  std::size_t size() const { return cubes_.size(); }
  bool empty() const { return cubes_.empty(); }

  const Cube& operator[](std::size_t i) const { return cubes_[i]; }
  Cube& operator[](std::size_t i) { return cubes_[i]; }

  std::vector<Cube>::const_iterator begin() const { return cubes_.begin(); }
  std::vector<Cube>::const_iterator end() const { return cubes_.end(); }
  const std::vector<Cube>& cubes() const { return cubes_; }

  /// Appends a cube; throws on shape mismatch. Empty cubes are rejected.
  void add(Cube cube);

  /// Appends all cubes of `other` (shapes must match).
  void append(const Cover& other);

  /// Removes the cube at index `i` (order of the rest preserved).
  void remove_at(std::size_t i);

  /// Espresso cofactor: cubes intersecting `p`, each cofactored by `p`.
  Cover cofactor(const Cube& p) const;

  /// The subset of cubes asserting output `j`, re-shaped to a
  /// single-output cover (input parts preserved, output part = "1").
  Cover restricted_to_output(int j) const;

  /// True when some cube has every input don't-care (the cover is a
  /// tautology for each output that cube asserts; used as a base case).
  bool has_universal_input_cube() const;

  /// ANDs literal (var=value) into every cube; cubes that become empty
  /// are dropped. Used to merge Shannon branches.
  void and_literal(int var, bool value);

  /// Sorts cubes canonically and removes exact duplicates.
  void sort_and_dedup();

  /// Removes every cube that is (bitwise) contained in another cube of
  /// the cover; of equal cubes the first survives. Survivors keep their
  /// order. Single-cube containment, not semantic coverage: each cube
  /// is compared only against the survivors with at least as many set
  /// bits (a superset has at least as many).
  void remove_single_cube_contained();

  /// Literal occurrence counts for input variable `i`.
  VarOccurrence var_occurrence(int i) const;

  /// Literal occurrence counts for every input variable, in one pass,
  /// into `counts` (resized to num_inputs(); callers reuse it).
  void var_occurrences(std::vector<VarOccurrence>& counts) const;

  /// True when no input variable appears in both polarities.
  bool is_unate() const;

  /// The input variable appearing in both polarities that maximizes
  /// min(zeros, ones), then total occurrences (the lowest index wins
  /// ties); -1 when the cover is unate.
  int most_binate_var() const;

  /// The input variable with the most literal occurrences (the lowest
  /// index wins ties); -1 when no cube has any literal.
  int most_frequent_var() const;

  /// The two selections above over counts from var_occurrences(), for
  /// callers that need both from one pass.
  static int most_binate_var(std::span<const VarOccurrence> counts);
  static int most_frequent_var(std::span<const VarOccurrence> counts);

  /// Sum of input literal counts over all cubes.
  int total_literals() const;

  /// True when some cube covers (minterm, out).
  bool covers_minterm(std::uint64_t minterm, int out) const;

  /// Multi-line Espresso-style text (one cube per line).
  std::string to_string() const;

  bool operator==(const Cover& other) const;

 private:
  int num_inputs_;
  int num_outputs_;
  std::vector<Cube> cubes_;
};

}  // namespace ambit::logic
