#include "logic/cube.h"

#include <algorithm>
#include <bit>

#include "util/check.h"
#include "util/error.h"

namespace ambit::logic {
namespace {

/// The bits [lo, hi) of a cube that fall into word `w`, as a mask of
/// that word.
std::uint64_t bit_range(int w, int lo, int hi) {
  const int b0 = std::max(lo - 64 * w, 0);
  const int b1 = std::min(hi - 64 * w, 64);
  if (b1 <= b0) {
    return 0;
  }
  const std::uint64_t below_b1 =
      b1 == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << b1) - 1;
  return below_b1 & ~((std::uint64_t{1} << b0) - 1);
}

/// One bit (the low bit of the pair) per input part of word `x` whose
/// two bits are both zero.
std::uint64_t empty_pairs(std::uint64_t x, std::uint64_t pair_mask) {
  return ~x & ~(x >> 1) & pair_mask;
}

}  // namespace

// Two ints and kInlineWords words: two cubes per 64-byte cache line.
static_assert(sizeof(Cube) == 32, "Cube: expected two ints and three words");

Cube::Cube(int num_inputs, int num_outputs)
    : num_inputs_(num_inputs), num_outputs_(num_outputs) {
  check(num_inputs >= 0, "Cube: negative input count");
  check(num_outputs >= 1, "Cube: at least one output required");
  allocate();
  // All inputs start as don't-care (11); outputs start clear.
  std::uint64_t* w = data();
  for (int k = 0; 64 * k < 2 * num_inputs_; ++k) {
    w[k] = input_bits(k);
  }
}

Cube::Cube(const Cube& other)
    : num_inputs_(other.num_inputs_), num_outputs_(other.num_outputs_) {
  if (on_heap()) {
    heap_ = new std::uint64_t[static_cast<std::size_t>(word_count())];
    std::copy_n(other.heap_, word_count(), heap_);
  } else {
    std::copy_n(other.inline_, kInlineWords, inline_);
  }
}

Cube::Cube(Cube&& other) noexcept
    : num_inputs_(other.num_inputs_), num_outputs_(other.num_outputs_) {
  if (on_heap()) {
    heap_ = other.heap_;
    // The moved-from cube becomes a valid (0-input, 1-output) cube.
    other.num_inputs_ = 0;
    other.num_outputs_ = 1;
    std::fill_n(other.inline_, kInlineWords, 0);
  } else {
    std::copy_n(other.inline_, kInlineWords, inline_);
  }
}

Cube& Cube::operator=(const Cube& other) {
  if (this == &other) {
    return *this;
  }
  if (word_count() != other.word_count()) {
    std::uint64_t* fresh =
        other.on_heap()
            ? new std::uint64_t[static_cast<std::size_t>(other.word_count())]
            : nullptr;
    release();
    if (fresh != nullptr) {
      heap_ = fresh;
    }
  }
  num_inputs_ = other.num_inputs_;
  num_outputs_ = other.num_outputs_;
  if (on_heap()) {
    std::copy_n(other.heap_, word_count(), heap_);
  } else {
    std::copy_n(other.inline_, kInlineWords, inline_);
  }
  return *this;
}

Cube& Cube::operator=(Cube&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  release();
  num_inputs_ = other.num_inputs_;
  num_outputs_ = other.num_outputs_;
  if (on_heap()) {
    heap_ = other.heap_;
    other.num_inputs_ = 0;
    other.num_outputs_ = 1;
    std::fill_n(other.inline_, kInlineWords, 0);
  } else {
    std::copy_n(other.inline_, kInlineWords, inline_);
  }
  return *this;
}

void Cube::allocate() {
  if (on_heap()) {
    heap_ = new std::uint64_t[static_cast<std::size_t>(word_count())]();
  } else {
    std::fill_n(inline_, kInlineWords, 0);
  }
}

void Cube::release() {
  if (on_heap()) {
    delete[] heap_;
  }
}

void Cube::require_same_shape(const Cube& other, const char* what) const {
  require(num_inputs_ == other.num_inputs_ &&
              num_outputs_ == other.num_outputs_,
          what);
}

Cube Cube::universe(int num_inputs, int num_outputs) {
  Cube c(num_inputs, num_outputs);
  std::uint64_t* w = c.data();
  for (int k = 0; k < c.word_count(); ++k) {
    w[k] |= bit_range(k, 2 * num_inputs, c.total_bits());
  }
  return c;
}

Cube Cube::parse(const std::string& inputs, const std::string& outputs) {
  Cube c(static_cast<int>(inputs.size()), static_cast<int>(outputs.size()));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    switch (inputs[i]) {
      case '0': c.set_input(static_cast<int>(i), Literal::kZero); break;
      case '1': c.set_input(static_cast<int>(i), Literal::kOne); break;
      case '-':
      case '2': c.set_input(static_cast<int>(i), Literal::kDontCare); break;
      default:
        throw Error("Cube::parse: bad input character '" +
                    std::string(1, inputs[i]) + "'");
    }
  }
  for (std::size_t j = 0; j < outputs.size(); ++j) {
    switch (outputs[j]) {
      case '1': c.set_output(static_cast<int>(j), true); break;
      case '0': c.set_output(static_cast<int>(j), false); break;
      default:
        throw Error("Cube::parse: bad output character '" +
                    std::string(1, outputs[j]) + "'");
    }
  }
  return c;
}

Literal Cube::input(int i) const {
  require(i >= 0 && i < num_inputs_, "Cube::input index out of range");
  const int bit = 2 * i;
  const std::uint64_t pair = (data()[bit / 64] >> (bit % 64)) & 0x3;
  return static_cast<Literal>(pair);
}

void Cube::set_input(int i, Literal value) {
  require(i >= 0 && i < num_inputs_, "Cube::set_input index out of range");
  const int bit = 2 * i;
  std::uint64_t& word = data()[bit / 64];
  word &= ~(std::uint64_t{0x3} << (bit % 64));
  word |= static_cast<std::uint64_t>(value) << (bit % 64);
}

bool Cube::output(int j) const {
  require(j >= 0 && j < num_outputs_, "Cube::output index out of range");
  const int bit = 2 * num_inputs_ + j;
  return ((data()[bit / 64] >> (bit % 64)) & 1) != 0;
}

void Cube::set_output(int j, bool value) {
  require(j >= 0 && j < num_outputs_, "Cube::set_output index out of range");
  const int bit = 2 * num_inputs_ + j;
  if (value) {
    data()[bit / 64] |= std::uint64_t{1} << (bit % 64);
  } else {
    data()[bit / 64] &= ~(std::uint64_t{1} << (bit % 64));
  }
}

void Cube::set_inputs_from(const Cube& other) {
  require(num_inputs_ == other.num_inputs_,
          "Cube::set_inputs_from input count mismatch");
  std::uint64_t* w = data();
  const std::uint64_t* o = other.data();
  for (int k = 0; 64 * k < 2 * num_inputs_; ++k) {
    const std::uint64_t m = input_bits(k);
    w[k] = (w[k] & ~m) | (o[k] & m);
  }
}

void Cube::intersect_inputs(const Cube& other) {
  require(num_inputs_ == other.num_inputs_,
          "Cube::intersect_inputs input count mismatch");
  std::uint64_t* w = data();
  const std::uint64_t* o = other.data();
  for (int k = 0; 64 * k < 2 * num_inputs_; ++k) {
    w[k] &= o[k] | ~input_bits(k);
  }
}

bool Cube::input_empty() const {
  const std::uint64_t* w = data();
  for (int k = 0; 64 * k < 2 * num_inputs_; ++k) {
    if (empty_pairs(w[k], input_bits(k) & kPartLowBits) != 0) {
      return true;
    }
  }
  return false;
}

bool Cube::output_empty() const {
  const std::uint64_t* w = data();
  for (int k = (2 * num_inputs_) / 64; k < word_count(); ++k) {
    if ((w[k] & bit_range(k, 2 * num_inputs_, total_bits())) != 0) {
      return false;
    }
  }
  return true;
}

int Cube::input_literal_count() const {
  // A part holds a literal when its two bits differ (01 or 10).
  const std::uint64_t* w = data();
  int count = 0;
  for (int k = 0; 64 * k < 2 * num_inputs_; ++k) {
    count += std::popcount((w[k] ^ (w[k] >> 1)) &
                           input_bits(k) & kPartLowBits);
  }
  return count;
}

int Cube::output_count() const {
  const std::uint64_t* w = data();
  int count = 0;
  for (int k = (2 * num_inputs_) / 64; k < word_count(); ++k) {
    count += std::popcount(w[k] & bit_range(k, 2 * num_inputs_, total_bits()));
  }
  return count;
}

int Cube::distance(const Cube& other) const {
  require_same_shape(other, "Cube::distance shape mismatch");
  const std::uint64_t* a = data();
  const std::uint64_t* b = other.data();
  int d = 0;
  // Input parts: 2-bit pairs never straddle a word boundary.
  for (int k = 0; 64 * k < 2 * num_inputs_; ++k) {
    d += std::popcount(
        empty_pairs(a[k] & b[k], input_bits(k) & kPartLowBits));
  }
  // Output part counts as a single part.
  bool output_meets = false;
  for (int k = (2 * num_inputs_) / 64; k < word_count() && !output_meets; ++k) {
    output_meets =
        (a[k] & b[k] & bit_range(k, 2 * num_inputs_, total_bits())) != 0;
  }
  if (!output_meets) {
    ++d;
  }
  return d;
}

bool Cube::intersects(const Cube& other) const {
  require_same_shape(other, "Cube::intersects shape mismatch");
  const std::uint64_t* a = data();
  const std::uint64_t* b = other.data();
  for (int k = 0; 64 * k < 2 * num_inputs_; ++k) {
    if (empty_pairs(a[k] & b[k], input_bits(k) & kPartLowBits) !=
        0) {
      return false;
    }
  }
  for (int k = (2 * num_inputs_) / 64; k < word_count(); ++k) {
    if ((a[k] & b[k] & bit_range(k, 2 * num_inputs_, total_bits())) != 0) {
      return true;
    }
  }
  return false;
}

Cube Cube::intersect(const Cube& other) const {
  require_same_shape(other, "Cube::intersect shape mismatch");
  Cube result = *this;
  std::uint64_t* r = result.data();
  const std::uint64_t* b = other.data();
  for (int k = 0; k < word_count(); ++k) {
    r[k] &= b[k];
  }
  return result;
}

bool Cube::contains(const Cube& other) const {
  require_same_shape(other, "Cube::contains shape mismatch");
  const std::uint64_t* a = data();
  const std::uint64_t* b = other.data();
  for (int k = 0; k < word_count(); ++k) {
    if ((b[k] & ~a[k]) != 0) {
      return false;
    }
  }
  return true;
}

bool Cube::input_contains(const Cube& other) const {
  require(num_inputs_ == other.num_inputs_, "Cube::input_contains shape mismatch");
  const std::uint64_t* a = data();
  const std::uint64_t* b = other.data();
  for (int k = 0; 64 * k < 2 * num_inputs_; ++k) {
    if ((b[k] & ~a[k] & input_bits(k)) != 0) {
      return false;
    }
  }
  return true;
}

Cube Cube::supercube(const Cube& other) const {
  require_same_shape(other, "Cube::supercube shape mismatch");
  Cube result = *this;
  std::uint64_t* r = result.data();
  const std::uint64_t* b = other.data();
  for (int k = 0; k < word_count(); ++k) {
    r[k] |= b[k];
  }
  return result;
}

Cube Cube::consensus(const Cube& other) const {
  Cube result = intersect(other);
  std::uint64_t* r = result.data();
  if (distance(other) != 1) {
    // Returns an explicitly empty cube (every part cleared).
    std::fill_n(r, word_count(), 0);
    return result;
  }
  // Exactly one part conflicts: raise that part to the union.
  const std::uint64_t* a = data();
  const std::uint64_t* b = other.data();
  for (int k = 0; 64 * k < 2 * num_inputs_; ++k) {
    const std::uint64_t conflict =
        empty_pairs(r[k], input_bits(k) & kPartLowBits);
    if (conflict != 0) {
      r[k] |= (a[k] | b[k]) & (conflict | (conflict << 1));
      return result;
    }
  }
  // The conflicting part is the output part.
  for (int k = (2 * num_inputs_) / 64; k < word_count(); ++k) {
    r[k] |= (a[k] | b[k]) & bit_range(k, 2 * num_inputs_, total_bits());
  }
  return result;
}

Cube Cube::cofactor(const Cube& p) const {
  require_same_shape(p, "Cube::cofactor shape mismatch");
  Cube result = *this;
  std::uint64_t* r = result.data();
  const std::uint64_t* q = p.data();
  for (int k = 0; k < word_count(); ++k) {
    r[k] |= ~q[k] & bit_range(k, 0, total_bits());
  }
  return result;
}

bool Cube::covers_minterm(std::uint64_t minterm, int out) const {
  require(num_inputs_ <= 64, "Cube::covers_minterm supports at most 64 inputs");
  if (!output(out)) {
    return false;
  }
  const std::uint64_t* w = data();
  for (int i = 0; i < num_inputs_; ++i) {
    const int value = static_cast<int>((minterm >> i) & 1);
    const int bit = 2 * i + value;
    if (((w[bit / 64] >> (bit % 64)) & 1) == 0) {
      return false;
    }
  }
  return true;
}

std::string Cube::to_string() const {
  std::string text;
  text.reserve(static_cast<std::size_t>(num_inputs_ + 1 + num_outputs_));
  for (int i = 0; i < num_inputs_; ++i) {
    switch (input(i)) {
      case Literal::kEmpty: text += 'E'; break;
      case Literal::kZero: text += '0'; break;
      case Literal::kOne: text += '1'; break;
      case Literal::kDontCare: text += '-'; break;
    }
  }
  text += ' ';
  for (int j = 0; j < num_outputs_; ++j) {
    text += output(j) ? '1' : '0';
  }
  return text;
}

bool Cube::operator==(const Cube& other) const {
  if (num_inputs_ != other.num_inputs_ || num_outputs_ != other.num_outputs_) {
    return false;
  }
  assert_padding_clean("Cube::operator==");
  other.assert_padding_clean("Cube::operator==");
  return std::equal(data(), data() + word_count(), other.data());
}

bool Cube::lexicographic_less(const Cube& a, const Cube& b) {
  a.require_same_shape(b, "Cube::lexicographic_less shape mismatch");
  a.assert_padding_clean("Cube::lexicographic_less");
  b.assert_padding_clean("Cube::lexicographic_less");
  const std::uint64_t* x = a.data();
  const std::uint64_t* y = b.data();
  for (int k = 0; k < a.word_count(); ++k) {
    if (x[k] != y[k]) {
      return x[k] < y[k];
    }
  }
  return false;
}

std::uint64_t Cube::last_word_mask() const {
  const int rem = total_bits() % 64;
  return rem == 0 ? ~std::uint64_t{0} : ((std::uint64_t{1} << rem) - 1);
}

void Cube::assert_padding_clean(const char* where) const {
  if constexpr (invariants_enabled()) {
    AMBIT_CHECK((data()[word_count() - 1] & ~last_word_mask()) == 0,
                std::string(where) + ": cube padding bits are set");
  } else {
    (void)where;
  }
}

std::string to_string(Literal lit) {
  switch (lit) {
    case Literal::kEmpty: return "ø";
    case Literal::kZero: return "0";
    case Literal::kOne: return "1";
    case Literal::kDontCare: return "-";
  }
  return "?";
}

}  // namespace ambit::logic
