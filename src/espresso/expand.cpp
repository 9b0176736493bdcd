#include "espresso/expand.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/error.h"

namespace ambit::espresso {

using logic::Cover;
using logic::Cube;
using logic::Literal;

namespace {

/// Words of a cube that hold input bits.
int input_word_count(int num_inputs) { return (2 * num_inputs + 63) / 64; }

/// One bit (the low bit of the part) per input part at which the input
/// words `a` and `b` do not intersect; returns the number of such parts.
int missed_parts(const std::uint64_t* a, const std::uint64_t* b,
                 const std::uint64_t* parts, int words, std::uint64_t* out) {
  int count = 0;
  for (int k = 0; k < words; ++k) {
    const std::uint64_t x = a[k] & b[k];
    out[k] = ~(x | (x >> 1)) & parts[k];
    count += std::popcount(out[k]);
  }
  return count;
}

/// The variable of the lowest part bit set in word k of a part mask.
int var_of(int k, std::uint64_t part_mask) {
  return 32 * k + std::countr_zero(part_mask) / 2;
}

/// Calls fn(j) for every output j that `c` asserts, ascending.
template <typename Fn>
void for_each_output(const Cube& c, Fn&& fn) {
  const auto w = c.words();
  const int first = 2 * c.num_inputs();
  for (int k = first / 64; k < static_cast<int>(w.size()); ++k) {
    std::uint64_t bits = w[static_cast<std::size_t>(k)];
    if (64 * k < first) {
      bits &= ~((std::uint64_t{1} << (first - 64 * k)) - 1);
    }
    for (; bits != 0; bits &= bits - 1) {
      fn(64 * k + std::countr_zero(bits) - first);
    }
  }
}

/// The lowest output asserted by both cubes (-1 when none).
int first_common_output(const Cube& a, const Cube& b) {
  int first = -1;
  for_each_output(a, [&](int j) {
    if (first < 0 && b.output(j)) {
      first = j;
    }
  });
  return first;
}

/// The OFF-set, indexed once per expand() call: for every output j the
/// OFF-set cubes asserting j, in OFF-set order, with their input words
/// copied into one contiguous array.
class OffIndex {
 public:
  explicit OffIndex(const Cover& off)
      : off_(off), words_(input_word_count(off.num_inputs())) {
    const int no = off.num_outputs();
    start_.assign(static_cast<std::size_t>(no) + 1, 0);
    for (const Cube& r : off) {
      for_each_output(r, [&](int j) { ++start_[static_cast<std::size_t>(j) + 1]; });
    }
    std::partial_sum(start_.begin(), start_.end(), start_.begin());
    members_.resize(start_.back());
    inputs_.resize(start_.back() * static_cast<std::size_t>(words_));
    multi_output_.assign(off.size(), false);
    std::vector<std::uint32_t> fill(start_.begin(), start_.end() - 1);
    for (std::size_t r = 0; r < off.size(); ++r) {
      const auto rw = off[r].words();
      int outputs = 0;
      for_each_output(off[r], [&](int j) {
        const std::uint32_t e = fill[static_cast<std::size_t>(j)]++;
        members_[e] = static_cast<std::uint32_t>(r);
        std::copy_n(rw.begin(), words_, inputs_.begin() + e * static_cast<std::size_t>(words_));
        ++outputs;
      });
      multi_output_[r] = outputs > 1;
    }
  }

  const Cover& off() const { return off_; }
  int input_words() const { return words_; }

  /// Entries [first(j), last(j)) list output j's OFF-set cubes.
  std::size_t first(int j) const { return start_[static_cast<std::size_t>(j)]; }
  std::size_t last(int j) const { return start_[static_cast<std::size_t>(j) + 1]; }
  /// Entry e's OFF-set index, and its input words (any output bits in
  /// the last input word are never read: callers mask with part bits).
  std::uint32_t member(std::size_t e) const { return members_[e]; }
  const std::uint64_t* inputs(std::size_t e) const {
    return inputs_.data() + e * static_cast<std::size_t>(words_);
  }
  bool multi_output(std::uint32_t r) const { return multi_output_[r]; }

 private:
  const Cover& off_;
  int words_;
  std::vector<std::uint32_t> start_;
  std::vector<std::uint32_t> members_;
  std::vector<std::uint64_t> inputs_;
  std::vector<bool> multi_output_;
};

/// Per-expand() scratch, reused from cube to cube.
struct Scratch {
  std::vector<std::uint64_t> parts;     ///< part bits of each input word
  std::vector<std::uint64_t> blockers;  ///< kept blockers' part masks
  std::vector<std::uint64_t> sole;      ///< parts some blocker has alone
  std::vector<int> count;               ///< per variable: kept blockers holding it
  std::vector<std::uint64_t> missed;    ///< parts one OFF-set cube misses
  std::vector<std::uint64_t> blocked;   ///< outputs no raised output may take
};

Cube expand_one(const Cube& cube, const OffIndex& index, Scratch& s) {
  const Cover& off = index.off();
  Cube c = cube;
  const int ni = c.num_inputs();
  const int no = c.num_outputs();
  const int iw = index.input_words();
  const std::size_t stride = static_cast<std::size_t>(iw);
  s.parts.resize(stride);
  for (int k = 0; k < iw; ++k) {
    s.parts[static_cast<std::size_t>(k)] = c.input_bits(k) & Cube::kPartLowBits;
  }
  const std::uint64_t* parts = s.parts.data();

  // Blocking state per relevant OFF-set cube r (one sharing an output
  // with c): the input parts at which c currently misses r, one bit per
  // part. r stays blocked while it has at least one; raising its last
  // one would make c intersect r, which is illegal. A blocker with one
  // part just pins that part (`sole`); the others are kept.
  const std::uint64_t* cw = c.words().data();
  std::size_t relevant = 0;
  for_each_output(c, [&](int j) { relevant += index.last(j) - index.first(j); });
  s.blockers.resize(relevant * stride);
  s.sole.assign(stride, 0);
  std::size_t kept = 0;
  for_each_output(c, [&](int j) {
    for (std::size_t e = index.first(j); e < index.last(j); ++e) {
      // An OFF-set cube with several outputs is listed under each; it
      // counts once, under the first output it shares with c.
      if (index.multi_output(index.member(e)) &&
          first_common_output(c, off[index.member(e)]) != j) {
        continue;
      }
      std::uint64_t* b = s.blockers.data() + kept * stride;
      const int missed = missed_parts(cw, index.inputs(e), parts, iw, b);
      // The ON-set must be disjoint from the OFF-set; a relevant blocker
      // with no blocking part would mean they already intersect.
      require(missed > 0, "expand_cube: cube intersects the OFF-set");
      if (missed == 1) {
        for (std::size_t k = 0; k < stride; ++k) {
          s.sole[k] |= b[k];
        }
      } else {
        ++kept;
      }
    }
  });
  s.blockers.resize(kept * stride);
  const auto is_sole = [&](int v) {
    return ((s.sole[static_cast<std::size_t>(v / 32)] >> (2 * v % 64)) & 1) != 0;
  };

  // Raise input literals greedily until no raising is legal. At each
  // step prefer the variable whose raising leaves the most blockers
  // with slack (not holding it), a cheap proxy for Espresso's "maximize
  // the number of covered cubes" objective: the legal variable in the
  // fewest kept blockers, the lowest one on ties. Only c's literals can
  // be blocking parts. Raising v takes it out of every blocker (the
  // other counts stay right); a blocker left with one part pins it.
  std::vector<int> candidates;
  for (int k = 0; k < iw; ++k) {
    const std::uint64_t x = cw[k];
    for (std::uint64_t lits = (x ^ (x >> 1)) & parts[k]; lits != 0;
         lits &= lits - 1) {
      candidates.push_back(var_of(k, lits));
    }
  }
  s.count.assign(static_cast<std::size_t>(ni), 0);
  for (const int v : candidates) {
    const std::size_t word = static_cast<std::size_t>(v / 32);
    const int shift = 2 * v % 64;
    int held = 0;
    for (std::size_t i = 0; i < kept; ++i) {
      held += static_cast<int>((s.blockers[i * stride + word] >> shift) & 1);
    }
    s.count[static_cast<std::size_t>(v)] = held;
  }
  for (;;) {
    int best = -1;
    for (const int v : candidates) {
      if (v >= 0 && !is_sole(v) &&
          (best < 0 || s.count[static_cast<std::size_t>(v)] <
                           s.count[static_cast<std::size_t>(best)])) {
        best = v;
      }
    }
    if (best < 0) {
      break;
    }
    c.set_input(best, Literal::kDontCare);
    std::replace(candidates.begin(), candidates.end(), best, -1);
    const std::size_t word = static_cast<std::size_t>(best / 32);
    const std::uint64_t bit = std::uint64_t{1} << (2 * best % 64);
    for (std::size_t i = 0; i < s.blockers.size(); i += stride) {
      std::uint64_t* blocker = s.blockers.data() + i;
      if ((blocker[word] & bit) == 0) {
        continue;
      }
      blocker[word] &= ~bit;
      int left = 0;
      for (std::size_t k = 0; k < stride; ++k) {
        left += std::popcount(blocker[k]);
      }
      if (left == 1) {
        for (std::size_t k = 0; k < stride; ++k) {
          s.sole[k] |= blocker[k];
        }
      }
    }
  }

  // Raise output bits: output j can join the cube when the expanded
  // input part misses every OFF-set cube of output j. One pass ORs
  // together the outputs of the OFF-set cubes the input part meets;
  // per output, the first such cube settles it.
  //
  // Inputs are not raised again afterwards, and need not be: each
  // literal left is the only blocking part of some OFF-set cube of an
  // original output, and raising outputs only adds blockers, so the
  // cube is already prime.
  const auto ew = c.words();
  s.missed.resize(stride);
  s.blocked.assign(ew.size(), 0);
  const int first_output = 2 * ni;
  const auto taken = [&](int j) {
    const int bit = first_output + j;
    return ((ew[static_cast<std::size_t>(bit / 64)] |
             s.blocked[static_cast<std::size_t>(bit / 64)]) >>
            (bit % 64)) & 1;
  };
  for (int j = 0; j < no; ++j) {
    if (taken(j) != 0) {
      continue;
    }
    for (std::size_t e = index.first(j); e < index.last(j); ++e) {
      if (missed_parts(ew.data(), index.inputs(e), parts, iw, s.missed.data()) == 0) {
        const auto rw = off[index.member(e)].words();
        for (std::size_t k = static_cast<std::size_t>(first_output / 64); k < rw.size(); ++k) {
          s.blocked[k] |= rw[k];
        }
        break;
      }
    }
  }
  for (int j = 0; j < no; ++j) {
    if (taken(j) == 0) {
      c.set_output(j, true);
    }
  }
  return c;
}

}  // namespace

Cube expand_cube(const Cube& cube, const Cover& off) {
  check(cube.num_inputs() == off.num_inputs() &&
            cube.num_outputs() == off.num_outputs(),
        "expand_cube: shape mismatch");
  const OffIndex index(off);
  Scratch scratch;
  return expand_one(cube, index, scratch);
}

Cover expand(const Cover& f, const Cover& off) {
  check(f.num_inputs() == off.num_inputs() &&
            f.num_outputs() == off.num_outputs(),
        "expand: shape mismatch");
  std::vector<std::size_t> order(f.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const int la = f[a].input_literal_count();
    const int lb = f[b].input_literal_count();
    if (la != lb) {
      return la > lb;  // most specific cubes first
    }
    return Cube::lexicographic_less(f[a], f[b]);
  });

  const OffIndex index(off);
  Scratch scratch;
  std::vector<bool> covered(f.size(), false);
  Cover result(f.num_inputs(), f.num_outputs());
  for (const std::size_t idx : order) {
    if (covered[idx]) {
      continue;
    }
    const Cube prime = expand_one(f[idx], index, scratch);
    covered[idx] = true;
    for (const std::size_t other : order) {
      if (!covered[other] && prime.contains(f[other])) {
        covered[other] = true;
      }
    }
    result.add(prime);
  }
  result.remove_single_cube_contained();
  return result;
}

}  // namespace ambit::espresso
