#include "espresso/unate.h"

#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/error.h"

namespace ambit::espresso {

using logic::Cover;
using logic::Cube;
using logic::Literal;
using logic::VarOccurrence;

namespace {

/// Cofactor of a single-output cover against literal (var = value).
Cover literal_cofactor(const Cover& f, int var, bool value) {
  Cube p = Cube::universe(f.num_inputs(), 1);
  p.set_input(var, value ? Literal::kOne : Literal::kZero);
  return f.cofactor(p);
}

/// Unate reduction for tautology: for every variable appearing in only
/// one polarity, drop the cubes with a literal there (f is a tautology
/// iff the reduced cover is). Returns true when anything was dropped.
bool unate_reduce(Cover& f, std::vector<VarOccurrence>& counts) {
  // `unate_parts` holds 11 at every unate variable, 00 elsewhere; a
  // cube survives when it is don't-care (11) at all of them.
  Cube unate_parts(f.num_inputs(), 1);
  bool any = false;
  f.var_occurrences(counts);
  for (int i = 0; i < f.num_inputs(); ++i) {
    const VarOccurrence& occ = counts[static_cast<std::size_t>(i)];
    if ((occ.zeros > 0) != (occ.ones > 0)) {
      any = true;
    } else {
      unate_parts.set_input(i, Literal::kEmpty);
    }
  }
  if (!any) {
    return false;
  }
  const auto mask = unate_parts.words();
  Cover reduced(f.num_inputs(), 1);
  for (const Cube& c : f) {
    const auto w = c.words();
    bool keep = true;
    // The output bit of `unate_parts` is clear, so only parts compare.
    for (std::size_t k = 0; k < mask.size() && keep; ++k) {
      keep = (w[k] & mask[k]) == mask[k];
    }
    if (keep) {
      reduced.add(c);
    }
  }
  f = std::move(reduced);
  return true;
}

bool tautology_rec(Cover f, int depth, std::vector<VarOccurrence>& counts) {
  require(depth <= 2 * f.num_inputs() + 4, "tautology: runaway recursion");
  for (;;) {
    if (f.has_universal_input_cube()) {
      return true;
    }
    if (f.empty()) {
      return false;
    }
    if (!unate_reduce(f, counts)) {
      break;
    }
  }
  // unate_reduce found no unate column, so `counts` is current.
  const int x = Cover::most_binate_var(counts);
  if (x < 0) {
    // After unate reduction every remaining literal column is binate;
    // no binate variable means no literals at all, and the universal
    // cube case was handled above, so the cover must have been emptied.
    return false;
  }
  return tautology_rec(literal_cofactor(f, x, true), depth + 1, counts) &&
         tautology_rec(literal_cofactor(f, x, false), depth + 1, counts);
}

/// Open-addressing table from a cube's words with one part forced to
/// don't-care to the first index holding that key. Owned by one
/// complement() call and reused by its recursion nodes.
class MergeTable {
 public:
  /// Indexes `cubes` by their words with part `var` raised to 11;
  /// of equal keys the first index is kept.
  void build(const Cover& cubes, int var) {
    cubes_ = &cubes;
    word_ = (2 * var) / 64;
    part_ = std::uint64_t{0x3} << ((2 * var) % 64);
    std::size_t size = 16;
    while (size < 2 * cubes.size()) {
      size *= 2;
    }
    slots_.assign(size, kFree);
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      const Cube& c = cubes[i];
      std::size_t slot = hash(c) & (slots_.size() - 1);
      while (slots_[slot] != kFree && !same_key(c, cubes[slots_[slot]])) {
        slot = (slot + 1) & (slots_.size() - 1);
      }
      if (slots_[slot] == kFree) {
        slots_[slot] = static_cast<std::uint32_t>(i);
      }
    }
  }

  /// The first indexed cube whose key equals `c`'s, or -1.
  std::ptrdiff_t find(const Cube& c) const {
    std::size_t slot = hash(c) & (slots_.size() - 1);
    while (slots_[slot] != kFree) {
      if (same_key(c, (*cubes_)[slots_[slot]])) {
        return slots_[slot];
      }
      slot = (slot + 1) & (slots_.size() - 1);
    }
    return -1;
  }

 private:
  static constexpr std::uint32_t kFree = ~std::uint32_t{0};

  std::uint64_t key_word(const Cube& c, std::size_t k) const {
    return c.words()[k] | (static_cast<int>(k) == word_ ? part_ : 0);
  }

  bool same_key(const Cube& a, const Cube& b) const {
    for (std::size_t k = 0; k < a.words().size(); ++k) {
      if (key_word(a, k) != key_word(b, k)) {
        return false;
      }
    }
    return true;
  }

  std::size_t hash(const Cube& c) const {
    // Keys are whole words: the padding bits must be zero.
    c.assert_padding_clean("complement merge key");
    std::uint64_t h = 0;
    for (std::size_t k = 0; k < c.words().size(); ++k) {
      h = (h ^ key_word(c, k)) * 0x9E3779B97F4A7C15ULL;
      h ^= h >> 29;
    }
    return static_cast<std::size_t>(h);
  }

  const Cover* cubes_ = nullptr;
  int word_ = 0;
  std::uint64_t part_ = 0;
  std::vector<std::uint32_t> slots_;
};

/// Buffers one complement() call reuses across its recursion nodes.
struct ComplementScratch {
  MergeTable table;
  std::vector<VarOccurrence> counts;
  std::vector<bool> used;
};

/// Merges the two Shannon branches x·c1 + x̄·c0 of a complement into
/// c1: each cube of c1 (in order) whose twin — identical except at x —
/// is an unused cube of c0 becomes the fused cube with x = don't-care;
/// the unused cubes of c0 follow in order. Both branches already carry
/// their x literal.
void merge_branches(Cover& c1, const Cover& c0, int x, ComplementScratch& s) {
  s.table.build(c0, x);
  s.used.assign(c0.size(), false);
  for (std::size_t i = 0; i < c1.size(); ++i) {
    const std::ptrdiff_t twin = s.table.find(c1[i]);
    if (twin >= 0 && !s.used[static_cast<std::size_t>(twin)]) {
      s.used[static_cast<std::size_t>(twin)] = true;
      c1[i].set_input(x, Literal::kDontCare);
    }
  }
  for (std::size_t i = 0; i < c0.size(); ++i) {
    if (!s.used[i]) {
      c1.add(c0[i]);
    }
  }
}

Cover complement_rec(const Cover& f, int depth, ComplementScratch& s) {
  require(depth <= 2 * f.num_inputs() + 4, "complement: runaway recursion");
  if (f.has_universal_input_cube()) {
    return Cover(f.num_inputs(), 1);
  }
  if (f.empty()) {
    return Cover::universe(f.num_inputs(), 1);
  }
  if (f.size() == 1) {
    return complement_cube(f[0]);
  }
  f.var_occurrences(s.counts);
  int x = Cover::most_binate_var(s.counts);
  if (x < 0) {
    x = Cover::most_frequent_var(s.counts);
  }
  require(x >= 0, "complement: non-trivial cover without literals");

  // Neither cofactor has a literal in x, so neither branch's complement
  // does: and_literal turns x from don't-care into the branch literal
  // in every cube and drops none.
  Cover c1 = complement_rec(literal_cofactor(f, x, true), depth + 1, s);
  const std::size_t n1 = c1.size();
  c1.and_literal(x, true);
  Cover c0 = complement_rec(literal_cofactor(f, x, false), depth + 1, s);
  const std::size_t n0 = c0.size();
  c0.and_literal(x, false);
  AMBIT_CHECK(c1.size() == n1 && c0.size() == n0,
              "complement: a branch complement carries the split variable");

  // No single-cube containment to remove: by induction each branch is
  // free of it, no cube of one branch meets the other branch (x
  // differs), and a fused cube contains only the two cubes it fused
  // (it equals its c1 cube away from x, and c1 is containment-free).
  merge_branches(c1, c0, x, s);
  return c1;
}

/// The closed form of complement_supercube for a unate cover that is
/// neither empty nor holds a universal cube. Flipping polarities so
/// that every literal is positive, the all-zero point is in the
/// complement, so each variable's part contains its non-literal value;
/// it also contains the literal value unless a one-literal cube on that
/// variable covers every point where it holds.
Cube unate_complement_supercube(const Cover& f) {
  Cube s = Cube::universe(f.num_inputs(), 1);
  for (const Cube& c : f) {
    if (c.input_literal_count() != 1) {
      continue;
    }
    for (int i = 0; i < f.num_inputs(); ++i) {
      const Literal lit = c.input(i);
      if (lit == Literal::kZero || lit == Literal::kOne) {
        s.set_input(i, lit == Literal::kZero ? Literal::kOne : Literal::kZero);
        break;
      }
    }
  }
  return s;
}

std::optional<Cube> complement_supercube_rec(
    const Cover& f, int depth, std::vector<VarOccurrence>& counts) {
  require(depth <= 2 * f.num_inputs() + 4,
          "complement_supercube: runaway recursion");
  if (f.has_universal_input_cube()) {
    return std::nullopt;
  }
  if (f.empty()) {
    return Cube::universe(f.num_inputs(), 1);
  }
  f.var_occurrences(counts);
  const int x = Cover::most_binate_var(counts);
  if (x < 0) {
    return unate_complement_supercube(f);
  }
  // complement(f) = x·complement(f_x) + x̄·complement(f_x̄); each branch
  // complement is free in x, so its supercube is too.
  std::optional<Cube> s1 =
      complement_supercube_rec(literal_cofactor(f, x, true), depth + 1, counts);
  const Cover f0 = literal_cofactor(f, x, false);
  std::optional<Cube> s0;
  if (s1.has_value() && s1->input_literal_count() == 0) {
    // The x branch alone spans every other variable: all the x̄ branch
    // can add is x̄ itself, and it does unless its complement is empty.
    if (!tautology_rec(f0, 0, counts)) {
      s0 = Cube::universe(f.num_inputs(), 1);
    }
  } else {
    s0 = complement_supercube_rec(f0, depth + 1, counts);
  }
  if (s1.has_value()) {
    s1->set_input(x, Literal::kOne);
  }
  if (s0.has_value()) {
    s0->set_input(x, Literal::kZero);
  }
  if (s1.has_value() && s0.has_value()) {
    return s1->supercube(*s0);
  }
  return s1.has_value() ? s1 : s0;
}

}  // namespace

bool tautology(const Cover& f) {
  check(f.num_outputs() == 1, "tautology: cover must be single-output");
  std::vector<VarOccurrence> counts;
  return tautology_rec(f, 0, counts);
}

Cover complement(const Cover& f) {
  check(f.num_outputs() == 1, "complement: cover must be single-output");
  ComplementScratch scratch;
  return complement_rec(f, 0, scratch);
}

std::optional<Cube> complement_supercube(const Cover& f) {
  check(f.num_outputs() == 1,
        "complement_supercube: cover must be single-output");
  std::vector<VarOccurrence> counts;
  return complement_supercube_rec(f, 0, counts);
}

Cover complement_cube(const Cube& c) {
  check(c.num_outputs() == 1, "complement_cube: cube must be single-output");
  Cover result(c.num_inputs(), 1);
  for (int i = 0; i < c.num_inputs(); ++i) {
    const Literal lit = c.input(i);
    if (lit == Literal::kZero || lit == Literal::kOne) {
      Cube piece = Cube::universe(c.num_inputs(), 1);
      piece.set_input(i, lit == Literal::kZero ? Literal::kOne : Literal::kZero);
      result.add(std::move(piece));
    }
  }
  // A literal-free cube is the universe; its complement is empty.
  return result;
}

bool covers(const Cover& g, const Cover* d, const Cube& c) {
  check(g.num_inputs() == c.num_inputs() && g.num_outputs() == c.num_outputs(),
        "covers: shape mismatch");
  Cube input_cube = Cube::universe(c.num_inputs(), 1);
  input_cube.set_inputs_from(c);
  Cube single = Cube::universe(c.num_inputs(), 1);
  for (int j = 0; j < c.num_outputs(); ++j) {
    if (!c.output(j)) {
      continue;
    }
    // (g ∪ d) restricted to output j, cofactored against c's inputs.
    Cover gj(c.num_inputs(), 1);
    for (const Cover* part : {&g, d}) {
      if (part == nullptr) {
        continue;
      }
      for (const Cube& r : *part) {
        if (!r.output(j)) {
          continue;
        }
        single.set_inputs_from(r);
        if (single.intersects(input_cube)) {
          gj.add(single.cofactor(input_cube));
        }
      }
    }
    if (!tautology(gj)) {
      return false;
    }
  }
  return true;
}

Cover offset(const Cover& onset, const Cover& dcset) {
  check(onset.num_inputs() == dcset.num_inputs() &&
            onset.num_outputs() == dcset.num_outputs(),
        "offset: onset/dcset shape mismatch");
  const int ni = onset.num_inputs();
  const int no = onset.num_outputs();
  Cover result(ni, no);
  for (int j = 0; j < no; ++j) {
    Cover fj = onset.restricted_to_output(j);
    fj.append(dcset.restricted_to_output(j));
    const Cover rj = complement(fj);
    Cube tagged(ni, no);
    tagged.set_output(j, true);
    for (const Cube& c : rj) {
      tagged.set_inputs_from(c);
      result.add(tagged);
    }
  }
  return result;
}

}  // namespace ambit::espresso
