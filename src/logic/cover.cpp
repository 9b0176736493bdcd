#include "logic/cover.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/error.h"
#include "util/strings.h"

namespace ambit::logic {

Cover::Cover(int num_inputs, int num_outputs)
    : num_inputs_(num_inputs), num_outputs_(num_outputs) {
  check(num_inputs >= 0, "Cover: negative input count");
  check(num_outputs >= 1, "Cover: at least one output required");
}

Cover Cover::universe(int num_inputs, int num_outputs) {
  Cover f(num_inputs, num_outputs);
  f.add(Cube::universe(num_inputs, num_outputs));
  return f;
}

Cover Cover::parse(int num_inputs, int num_outputs,
                   const std::vector<std::string>& rows) {
  Cover f(num_inputs, num_outputs);
  for (const auto& row : rows) {
    const auto fields = split_ws(row);
    check(fields.size() == 2, "Cover::parse: row must be '<inputs> <outputs>'");
    check(static_cast<int>(fields[0].size()) == num_inputs,
          "Cover::parse: wrong input arity in row '" + row + "'");
    check(static_cast<int>(fields[1].size()) == num_outputs,
          "Cover::parse: wrong output arity in row '" + row + "'");
    f.add(Cube::parse(fields[0], fields[1]));
  }
  return f;
}

void Cover::add(Cube cube) {
  check(cube.num_inputs() == num_inputs_ && cube.num_outputs() == num_outputs_,
        "Cover::add: cube shape mismatch");
  check(!cube.empty(), "Cover::add: empty cube");
  cubes_.push_back(std::move(cube));
}

void Cover::append(const Cover& other) {
  check(other.num_inputs_ == num_inputs_ && other.num_outputs_ == num_outputs_,
        "Cover::append: shape mismatch");
  cubes_.insert(cubes_.end(), other.cubes_.begin(), other.cubes_.end());
}

void Cover::remove_at(std::size_t i) {
  require(i < cubes_.size(), "Cover::remove_at: index out of range");
  cubes_.erase(cubes_.begin() + static_cast<std::ptrdiff_t>(i));
}

Cover Cover::cofactor(const Cube& p) const {
  require(cubes_.empty() || (p.num_inputs() == num_inputs_ &&
                             p.num_outputs() == num_outputs_),
          "Cube::intersects shape mismatch");
  // One intersection test and one OR per word of each cube. Padding
  // bits are zero, so a word's non-input bits that meet are outputs.
  const int words = p.word_count();
  const std::uint64_t* q = p.data();
  const std::uint64_t last = p.last_word_mask();
  Cover result(num_inputs_, num_outputs_);
  result.cubes_.reserve(cubes_.size());
  for (const Cube& c : cubes_) {
    const std::uint64_t* w = c.data();
    bool disjoint_input = false;
    bool output_meets = false;
    for (int k = 0; k < words; ++k) {
      const std::uint64_t x = w[k] & q[k];
      const std::uint64_t inputs = p.input_bits(k);
      disjoint_input |= (~(x | (x >> 1)) & inputs & Cube::kPartLowBits) != 0;
      output_meets |= (x & ~inputs) != 0;
    }
    if (disjoint_input || !output_meets) {
      continue;
    }
    result.cubes_.push_back(c);
    std::uint64_t* r = result.cubes_.back().data();
    for (int k = 0; k < words; ++k) {
      r[k] |= ~q[k] & (k + 1 < words ? ~std::uint64_t{0} : last);
    }
  }
  return result;
}

Cover Cover::restricted_to_output(int j) const {
  check(j >= 0 && j < num_outputs_, "Cover::restricted_to_output: bad index");
  Cover result(num_inputs_, 1);
  const int bit = 2 * num_inputs_ + j;
  const int word = bit / 64;
  const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
  Cube single = Cube::universe(num_inputs_, 1);
  for (const Cube& c : cubes_) {
    if ((c.data()[word] & mask) != 0) {
      single.set_inputs_from(c);
      result.cubes_.push_back(single);
    }
  }
  return result;
}

bool Cover::has_universal_input_cube() const {
  for (const Cube& c : cubes_) {
    if (c.input_literal_count() == 0 && !c.output_empty()) {
      return true;
    }
  }
  return false;
}

void Cover::and_literal(int var, bool value) {
  check(var >= 0 && var < num_inputs_, "Cover::and_literal: bad variable");
  const int word = (2 * var) / 64;
  const int shift = (2 * var) % 64;
  const std::uint64_t part = std::uint64_t{0x3} << shift;
  const std::uint64_t wanted =
      static_cast<std::uint64_t>(value ? Literal::kOne : Literal::kZero)
      << shift;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < cubes_.size(); ++i) {
    std::uint64_t& w = cubes_[i].data()[word];
    // Don't-care becomes the literal, the literal stays; the opposite
    // literal or an empty part vanishes under the AND.
    if ((w & wanted) == 0) {
      continue;
    }
    w = (w & ~part) | wanted;
    if (kept != i) {
      cubes_[kept] = std::move(cubes_[i]);
    }
    ++kept;
  }
  cubes_.erase(cubes_.begin() + static_cast<std::ptrdiff_t>(kept), cubes_.end());
}

void Cover::sort_and_dedup() {
  std::sort(cubes_.begin(), cubes_.end(), Cube::lexicographic_less);
  cubes_.erase(std::unique(cubes_.begin(), cubes_.end()), cubes_.end());
}

void Cover::remove_single_cube_contained() {
  // A cube dies when another cube strictly contains it, or when an
  // equal cube comes earlier. Visiting cubes by descending popcount
  // (index order among equal counts), a cube need only be tested
  // against the survivors so far: any container has at least as many
  // bits, and a container that died is itself inside a survivor.
  const std::size_t n = cubes_.size();
  std::vector<int> bits(n);
  for (std::size_t i = 0; i < n; ++i) {
    int count = 0;
    for (const std::uint64_t w : cubes_[i].words()) {
      count += std::popcount(w);
    }
    bits[i] = count;
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return bits[a] > bits[b]; });
  std::vector<std::size_t> survivors;
  std::vector<bool> alive(n, false);
  for (const std::size_t i : order) {
    bool contained = false;
    for (const std::size_t s : survivors) {
      if (cubes_[s].contains(cubes_[i])) {
        contained = true;
        break;
      }
    }
    if (!contained) {
      survivors.push_back(i);
      alive[i] = true;
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (alive[i]) {
      if (kept != i) {
        cubes_[kept] = std::move(cubes_[i]);
      }
      ++kept;
    }
  }
  cubes_.erase(cubes_.begin() + static_cast<std::ptrdiff_t>(kept), cubes_.end());
}

VarOccurrence Cover::var_occurrence(int i) const {
  check(i >= 0 && i < num_inputs_, "Cover::var_occurrence: bad variable");
  const int word = (2 * i) / 64;
  const int shift = (2 * i) % 64;
  VarOccurrence occ;
  for (const Cube& c : cubes_) {
    switch ((c.data()[word] >> shift) & 0x3) {
      case static_cast<std::uint64_t>(Literal::kZero): ++occ.zeros; break;
      case static_cast<std::uint64_t>(Literal::kOne): ++occ.ones; break;
      default: break;
    }
  }
  return occ;
}

void Cover::var_occurrences(std::vector<VarOccurrence>& counts) const {
  counts.assign(static_cast<std::size_t>(num_inputs_), VarOccurrence{});
  for (const Cube& c : cubes_) {
    const std::uint64_t* w = c.data();
    for (int k = 0; 64 * k < 2 * num_inputs_; ++k) {
      const std::uint64_t x = w[k];
      const std::uint64_t m = c.input_bits(k) & Cube::kPartLowBits;
      // Low bit of each 01 part (x̄) and of each 10 part (x).
      for (std::uint64_t zeros = x & ~(x >> 1) & m; zeros != 0; zeros &= zeros - 1) {
        ++counts[static_cast<std::size_t>(32 * k + std::countr_zero(zeros) / 2)].zeros;
      }
      for (std::uint64_t ones = ~x & (x >> 1) & m; ones != 0; ones &= ones - 1) {
        ++counts[static_cast<std::size_t>(32 * k + std::countr_zero(ones) / 2)].ones;
      }
    }
  }
}

bool Cover::is_unate() const {
  std::vector<VarOccurrence> counts;
  var_occurrences(counts);
  for (const VarOccurrence& occ : counts) {
    if (occ.zeros > 0 && occ.ones > 0) {
      return false;
    }
  }
  return true;
}

int Cover::most_binate_var() const {
  std::vector<VarOccurrence> counts;
  var_occurrences(counts);
  return most_binate_var(counts);
}

int Cover::most_frequent_var() const {
  std::vector<VarOccurrence> counts;
  var_occurrences(counts);
  return most_frequent_var(counts);
}

int Cover::most_binate_var(std::span<const VarOccurrence> counts) {
  int best = -1;
  int best_min = -1;
  int best_total = -1;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const VarOccurrence& occ = counts[i];
    if (occ.zeros == 0 || occ.ones == 0) {
      continue;
    }
    const int lo = std::min(occ.zeros, occ.ones);
    const int total = occ.zeros + occ.ones;
    if (lo > best_min || (lo == best_min && total > best_total)) {
      best = static_cast<int>(i);
      best_min = lo;
      best_total = total;
    }
  }
  return best;
}

int Cover::most_frequent_var(std::span<const VarOccurrence> counts) {
  int best = -1;
  int best_total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const int total = counts[i].zeros + counts[i].ones;
    if (total > best_total) {
      best = static_cast<int>(i);
      best_total = total;
    }
  }
  return best;
}

int Cover::total_literals() const {
  int total = 0;
  for (const Cube& c : cubes_) {
    total += c.input_literal_count();
  }
  return total;
}

bool Cover::covers_minterm(std::uint64_t minterm, int out) const {
  for (const Cube& c : cubes_) {
    if (c.covers_minterm(minterm, out)) {
      return true;
    }
  }
  return false;
}

std::string Cover::to_string() const {
  std::string text;
  for (const Cube& c : cubes_) {
    text += c.to_string();
    text += '\n';
  }
  return text;
}

bool Cover::operator==(const Cover& other) const {
  return num_inputs_ == other.num_inputs_ &&
         num_outputs_ == other.num_outputs_ && cubes_ == other.cubes_;
}

}  // namespace ambit::logic
