// Positional-cube representation of product terms.
//
// AMBIT uses the classical Espresso encoding for multi-output,
// single-bit-valued logic:
//
//   * each input variable occupies a 2-bit "part":
//       01 -> the cube covers input value 0   (literal x̄)
//       10 -> the cube covers input value 1   (literal x)
//       11 -> don't care                      (variable absent)
//       00 -> empty part                      (cube covers nothing)
//   * the outputs form one final part with one bit per output:
//       bit j set -> the cube is part of output j's cover.
//
// All parts are packed LSB-first into an array of 64-bit words, so cube
// algebra (intersection, containment, supercube, distance, counts) is
// one masked operation per word. Bits past the last part (the padding
// of the last word) are always zero; equality, ordering and hashing
// compare whole words and rely on it (assert_padding_clean).
//
// Storage: a cube of up to kInlineWords words (192 bits, e.g. 64 inputs
// and 64 outputs) keeps its words inside the object, so a Cube is 32
// bytes and copying one allocates nothing; a Cover of such cubes is one
// contiguous array. Wider cubes keep their words in one heap block.
//
// Conventions used throughout AMBIT:
//   * a cube is EMPTY when any input part is 00 or the output part is
//     all zeroes — an empty cube covers no (minterm, output) pair;
//   * "distance" counts the parts at which two cubes fail to intersect
//     (Espresso's definition); distance 0 means they intersect.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace ambit::logic {

/// State of one input variable inside a cube.
enum class Literal : std::uint8_t {
  kEmpty = 0,     ///< 00 — no value allowed (cube is empty)
  kZero = 1,      ///< 01 — complemented literal (covers input = 0)
  kOne = 2,       ///< 10 — positive literal (covers input = 1)
  kDontCare = 3,  ///< 11 — variable dropped from the product
};

/// A single product term over `num_inputs` binary inputs asserting a
/// subset of `num_outputs` outputs. Value-semantic, cheaply copyable.
class Cube {
 public:
  /// Words stored inside the object; wider cubes use one heap block.
  static constexpr int kInlineWords = 3;

  /// Constructs the cube with all inputs don't-care and NO outputs
  /// asserted (an empty cube until at least one output bit is set).
  Cube(int num_inputs, int num_outputs);

  Cube(const Cube& other);
  Cube(Cube&& other) noexcept;
  Cube& operator=(const Cube& other);
  Cube& operator=(Cube&& other) noexcept;
  ~Cube() { release(); }

  /// The universal cube: all inputs don't-care, all outputs asserted.
  static Cube universe(int num_inputs, int num_outputs);

  /// Parses Espresso text, e.g. Cube::parse("10-1", "01"). Throws
  /// ambit::Error on malformed text.
  static Cube parse(const std::string& inputs, const std::string& outputs);

  int num_inputs() const { return num_inputs_; }
  int num_outputs() const { return num_outputs_; }

  /// Reads/writes the part for input variable `i`.
  Literal input(int i) const;
  void set_input(int i, Literal value);

  /// Reads/writes output membership bit `j`.
  bool output(int j) const;
  void set_output(int j, bool value);

  /// Replaces this cube's input part with `other`'s (same input count,
  /// any output count); the output part is kept.
  void set_inputs_from(const Cube& other);

  /// ANDs `other`'s input part (same input count, any output count)
  /// into this cube's input part; the output part is kept.
  void intersect_inputs(const Cube& other);

  /// True when some input part is 00.
  bool input_empty() const;
  /// True when no output is asserted.
  bool output_empty() const;
  /// True when the cube covers no (minterm, output) pair.
  bool empty() const { return input_empty() || output_empty(); }

  /// Number of inputs that are not don't-care (the product's literals).
  int input_literal_count() const;
  /// Number of asserted outputs.
  int output_count() const;

  /// Espresso distance: number of parts (inputs + the single output
  /// part) at which the two cubes do not intersect.
  int distance(const Cube& other) const;
  /// True iff distance(other) == 0.
  bool intersects(const Cube& other) const;

  /// Part-wise intersection (bitwise AND). May be an empty cube.
  Cube intersect(const Cube& other) const;

  /// True when this cube covers `other` (bitwise superset).
  bool contains(const Cube& other) const;

  /// Containment restricted to the input parts (ignores outputs).
  bool input_contains(const Cube& other) const;

  /// Smallest cube containing both (bitwise OR).
  Cube supercube(const Cube& other) const;

  /// Consensus: the largest cube covered by this ∪ other that spans the
  /// single conflicting part. Returns an empty cube unless distance==1.
  Cube consensus(const Cube& other) const;

  /// Espresso cofactor of this cube against `p`: part-wise
  /// this_i | ~p_i. Caller must ensure intersects(p); the output part
  /// follows the same rule so multi-output cofactoring is uniform.
  Cube cofactor(const Cube& p) const;

  /// True when the cube covers input assignment `minterm` (bit i of
  /// `minterm` is the value of input i) for output `out`.
  bool covers_minterm(std::uint64_t minterm, int out) const;

  /// Espresso text form, e.g. "10-1 01".
  std::string to_string() const;

  bool operator==(const Cube& other) const;

  /// Deterministic strict weak ordering (for canonical sorting): the
  /// word arrays compared lexicographically, word 0 first.
  static bool lexicographic_less(const Cube& a, const Cube& b);

  /// Raw word access for word-parallel algorithms (read-only, so the
  /// padding bits cannot be dirtied from outside). Input i is bits 2i
  /// (value 0) and 2i+1 (value 1); output j is bit 2·num_inputs() + j.
  std::span<const std::uint64_t> words() const {
    return {data(), static_cast<std::size_t>(word_count())};
  }

  /// The bits of word `k` of words() that hold input parts.
  std::uint64_t input_bits(int k) const {
    const int hi = 2 * num_inputs_ - 64 * k;
    if (hi <= 0) return 0;
    return hi >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << hi) - 1;
  }
  /// The low bit of every part position in a word.
  static constexpr std::uint64_t kPartLowBits = 0x5555555555555555ULL;

  /// Mask of the valid bits in the last word (other bits are zero).
  std::uint64_t last_word_mask() const;

  /// AMBIT_CHECK probe (util/check.h): the padding bits of the last
  /// word are zero. A no-op unless invariants are compiled in.
  void assert_padding_clean(const char* where) const;

 private:
  friend class Cover;

  std::int32_t num_inputs_;
  std::int32_t num_outputs_;
  union {
    std::uint64_t inline_[kInlineWords];
    std::uint64_t* heap_;
  };

  int total_bits() const { return 2 * num_inputs_ + num_outputs_; }
  int word_count() const { return (total_bits() + 63) / 64; }
  bool on_heap() const { return word_count() > kInlineWords; }
  std::uint64_t* data() { return on_heap() ? heap_ : inline_; }
  const std::uint64_t* data() const { return on_heap() ? heap_ : inline_; }
  /// Allocates (or clears) zeroed storage for the current shape.
  void allocate();
  void release();
  void require_same_shape(const Cube& other, const char* what) const;
};

/// Human-readable name for a literal state ("0", "1", "-", "ø").
std::string to_string(Literal lit);

}  // namespace ambit::logic
