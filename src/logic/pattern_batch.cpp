#include "logic/pattern_batch.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.h"
#include "util/error.h"

namespace ambit::logic {

namespace {

// Stripe constants for the low six exhaustive input lanes: lane i of an
// exhaustive batch repeats the 64-bit pattern where bit p is bit i of p.
constexpr std::uint64_t kStripe[6] = {
    0xAAAAAAAAAAAAAAAAULL,  // bit 0 of the pattern index
    0xCCCCCCCCCCCCCCCCULL,  // bit 1
    0xF0F0F0F0F0F0F0F0ULL,  // bit 2
    0xFF00FF00FF00FF00ULL,  // bit 3
    0xFFFF0000FFFF0000ULL,  // bit 4
    0xFFFFFFFF00000000ULL,  // bit 5
};

}  // namespace

PatternBatch::PatternBatch(int num_signals, std::uint64_t num_patterns)
    : PatternBatch(num_signals, num_patterns, LaneWords()) {
  words_.assign(total_words(), 0);
}

PatternBatch::PatternBatch(int num_signals, std::uint64_t num_patterns,
                           LaneWords words)
    : num_signals_(num_signals),
      num_patterns_(num_patterns),
      words_(std::move(words)) {
  check(num_signals >= 0, "PatternBatch: negative signal count");
  check(num_patterns <= ~std::uint64_t{0} - 63,
        "PatternBatch: pattern count overflows the word layout");
  words_per_lane_ = (num_patterns + 63) / 64;
  const std::uint64_t tail = num_patterns % 64;
  tail_mask_ = tail == 0 ? ~std::uint64_t{0} : ((std::uint64_t{1} << tail) - 1);
}

PatternBatch PatternBatch::from_words(int num_signals,
                                      std::uint64_t num_patterns,
                                      LaneWords words) {
  PatternBatch batch(num_signals, num_patterns, std::move(words));
  check(batch.words_.size() == batch.total_words(),
        "PatternBatch::from_words: expected " +
            std::to_string(batch.total_words()) + " words, got " +
            std::to_string(batch.words_.size()));
  batch.mask_tails();
  // As in load_words: the re-mask is what makes a hostile frame's stray
  // tail bits harmless.
  batch.assert_tail_clean("PatternBatch::from_words (result)");
  return batch;
}

PatternBatch PatternBatch::exhaustive(int num_inputs) {
  check(num_inputs >= 0 && num_inputs < 63,
        "PatternBatch::exhaustive: input count out of range");
  PatternBatch batch(num_inputs, std::uint64_t{1} << num_inputs);
  for (int i = 0; i < num_inputs; ++i) {
    std::uint64_t* words = batch.lane(i);
    if (i < 6) {
      for (std::uint64_t w = 0; w < batch.words_per_lane_; ++w) {
        words[w] = kStripe[i];
      }
    } else {
      // Signal i is bit i of the pattern index: within word w, all 64
      // patterns share that bit, which is bit (i - 6) of w.
      for (std::uint64_t w = 0; w < batch.words_per_lane_; ++w) {
        words[w] = ((w >> (i - 6)) & 1) ? ~std::uint64_t{0} : 0;
      }
    }
  }
  // Sub-word exhaustive batches (num_inputs < 6) must keep the tail
  // padding zero.
  if (batch.words_per_lane_ == 1) {
    for (int i = 0; i < num_inputs; ++i) {
      batch.lane(i)[0] &= batch.tail_mask_;
    }
  }
  return batch;
}

PatternBatch PatternBatch::from_patterns(
    const std::vector<std::vector<bool>>& patterns) {
  const int width =
      patterns.empty() ? 0 : static_cast<int>(patterns.front().size());
  PatternBatch batch(width, patterns.size());
  for (std::uint64_t p = 0; p < patterns.size(); ++p) {
    batch.set_pattern(p, patterns[p]);
  }
  return batch;
}

std::uint64_t PatternBatch::lane_start(int signal) const {
  check(signal >= 0 && signal < num_signals_,
        "PatternBatch: signal index out of range");
  return static_cast<std::uint64_t>(signal) * words_per_lane_;
}

bool PatternBatch::get(std::uint64_t pattern, int signal) const {
  check(pattern < num_patterns_, "PatternBatch::get: pattern out of range");
  return ((words_[lane_start(signal) + pattern / 64] >> (pattern % 64)) & 1) !=
         0;
}

void PatternBatch::set(std::uint64_t pattern, int signal, bool value) {
  check(pattern < num_patterns_, "PatternBatch::set: pattern out of range");
  std::uint64_t& word = words_[lane_start(signal) + pattern / 64];
  const std::uint64_t bit = std::uint64_t{1} << (pattern % 64);
  if (value) {
    word |= bit;
  } else {
    word &= ~bit;
  }
}

std::vector<bool> PatternBatch::pattern(std::uint64_t p) const {
  std::vector<bool> bits(static_cast<std::size_t>(num_signals_));
  for (int s = 0; s < num_signals_; ++s) {
    bits[static_cast<std::size_t>(s)] = get(p, s);
  }
  return bits;
}

void PatternBatch::set_pattern(std::uint64_t p, const std::vector<bool>& bits) {
  check(static_cast<int>(bits.size()) == num_signals_,
        "PatternBatch::set_pattern: width mismatch");
  for (int s = 0; s < num_signals_; ++s) {
    set(p, s, bits[static_cast<std::size_t>(s)]);
  }
}

const std::uint64_t* PatternBatch::lane(int signal) const {
  return words_.data() + lane_start(signal);
}

std::uint64_t* PatternBatch::lane(int signal) {
  return words_.data() + lane_start(signal);
}

void PatternBatch::assert_tail_clean(const char* where) const {
  if constexpr (invariants_enabled()) {
    if (words_per_lane_ == 0 || tail_mask_ == ~std::uint64_t{0}) {
      return;
    }
    for (int s = 0; s < num_signals_; ++s) {
      AMBIT_CHECK((lane(s)[words_per_lane_ - 1] & ~tail_mask_) == 0,
                  std::string(where) + ": tail padding of lane " +
                      std::to_string(s) + " carries set bits");
    }
  } else {
    (void)where;
  }
}

PatternBatch PatternBatch::slice(std::uint64_t first,
                                 std::uint64_t count) const {
  assert_tail_clean("PatternBatch::slice (source)");
  check(first % 64 == 0, "PatternBatch::slice: first must be word-aligned");
  check(first + count <= num_patterns_ && count > 0,
        "PatternBatch::slice: range out of bounds");
  check(count % 64 == 0 || first + count == num_patterns_,
        "PatternBatch::slice: partial word only allowed at the batch end");
  PatternBatch out(num_signals_, count);
  const std::uint64_t word0 = first / 64;
  for (int s = 0; s < num_signals_; ++s) {
    const std::uint64_t* from = lane(s) + word0;
    std::uint64_t* to = out.lane(s);
    for (std::uint64_t w = 0; w < out.words_per_lane_; ++w) {
      to[w] = from[w];
    }
    // The source's final word is already masked, so the slice's tail
    // padding stays zero by construction; re-mask anyway for safety.
    to[out.words_per_lane_ - 1] &= out.tail_mask_;
  }
  out.assert_tail_clean("PatternBatch::slice (result)");
  return out;
}

void PatternBatch::paste(const PatternBatch& src, std::uint64_t first) {
  src.assert_tail_clean("PatternBatch::paste (source)");
  check(src.num_signals_ == num_signals_,
        "PatternBatch::paste: signal count mismatch");
  check(first % 64 == 0, "PatternBatch::paste: first must be word-aligned");
  check(first + src.num_patterns_ <= num_patterns_,
        "PatternBatch::paste: source does not fit");
  check(src.num_patterns_ % 64 == 0 ||
            first + src.num_patterns_ == num_patterns_,
        "PatternBatch::paste: partial word only allowed at the batch end");
  const std::uint64_t word0 = first / 64;
  for (int s = 0; s < num_signals_; ++s) {
    const std::uint64_t* from = src.lane(s);
    std::uint64_t* to = lane(s) + word0;
    for (std::uint64_t w = 0; w < src.words_per_lane_; ++w) {
      to[w] = from[w];
    }
  }
  // A source slice ending mid-word is only legal at this batch's end,
  // so its (clean) tail padding lands exactly on ours. Assert only
  // from the paste that wrote the final word: sharded sweeps paste
  // disjoint word ranges concurrently, and the tail check reads every
  // lane's last word — from any other shard that read would race the
  // final shard's writes.
  if (first + src.num_patterns_ == num_patterns_) {
    assert_tail_clean("PatternBatch::paste (result)");
  }
}

namespace {

/// Copies `count` bits from bit offset `src_off` of `src` to bit offset
/// `dst_off` of `dst`, chunked so every shift stays strictly below 64.
/// Bits of `dst` outside the destination range are preserved.
void copy_bit_range(const std::uint64_t* src, std::uint64_t src_off,
                    std::uint64_t* dst, std::uint64_t dst_off,
                    std::uint64_t count) {
  while (count > 0) {
    const std::uint64_t s_bit = src_off % 64;
    const std::uint64_t d_bit = dst_off % 64;
    // The chunk ends at the nearest word boundary of EITHER side, so a
    // single masked read/modify/write per iteration suffices and the
    // full-word case (n == 64, only possible when both sides are
    // aligned) is the one place a 64-bit shift could occur.
    const std::uint64_t n =
        std::min({count, 64 - s_bit, 64 - d_bit});
    const std::uint64_t mask =
        n == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
    const std::uint64_t bits = (src[src_off / 64] >> s_bit) & mask;
    std::uint64_t& word = dst[dst_off / 64];
    word = (word & ~(mask << d_bit)) | (bits << d_bit);
    src_off += n;
    dst_off += n;
    count -= n;
  }
}

}  // namespace

void PatternBatch::copy_patterns_from(const PatternBatch& src,
                                      std::uint64_t src_first,
                                      std::uint64_t dst_first,
                                      std::uint64_t count) {
  check(src.num_signals_ == num_signals_,
        "PatternBatch::copy_patterns_from: signal count mismatch");
  check(src_first + count <= src.num_patterns_,
        "PatternBatch::copy_patterns_from: source range out of bounds");
  check(dst_first + count <= num_patterns_,
        "PatternBatch::copy_patterns_from: destination range out of bounds");
  if (src_first % 64 == 0 && dst_first % 64 == 0) {
    // Word-aligned fast path (the common case for sharded gathers):
    // whole words move by plain copy, and only a trailing partial word
    // needs the read-modify-write merge.
    const std::uint64_t full_words = count / 64;
    const std::uint64_t tail_bits = count % 64;
    for (int s = 0; s < num_signals_; ++s) {
      const std::uint64_t* from = src.lane(s) + src_first / 64;
      std::uint64_t* to = lane(s) + dst_first / 64;
      std::copy(from, from + full_words, to);
      if (tail_bits != 0) {
        const std::uint64_t mask = (std::uint64_t{1} << tail_bits) - 1;
        to[full_words] =
            (to[full_words] & ~mask) | (from[full_words] & mask);
      }
    }
  } else {
    for (int s = 0; s < num_signals_; ++s) {
      copy_bit_range(src.lane(s), src_first, lane(s), dst_first, count);
    }
  }
  // copy_bit_range preserves destination bits outside the copied range
  // BY CONTRACT — per-turn fusion's exactness proof leans on it — so a
  // clean destination must still be clean (a dirty source tail can only
  // reach our padding through an in-range copy of invalid source bits,
  // which the bounds checks above exclude).
  assert_tail_clean("PatternBatch::copy_patterns_from (result)");
}

void PatternBatch::load_words(const std::uint64_t* src, std::uint64_t count) {
  check(count == total_words(),
        "PatternBatch::load_words: expected " + std::to_string(total_words()) +
            " words, got " + std::to_string(count));
  std::copy(src, src + count, words_.begin());
  mask_tails();
  // The re-mask above is what makes a hostile EVALB frame with stray
  // tail bits harmless; this is the executable form of that promise.
  assert_tail_clean("PatternBatch::load_words (result)");
}

void PatternBatch::store_words(std::uint64_t* dst, std::uint64_t count) const {
  check(count == total_words(),
        "PatternBatch::store_words: expected " + std::to_string(total_words()) +
            " words, got " + std::to_string(count));
  std::copy(words_.begin(), words_.end(), dst);
}

LaneWords PatternBatch::release_words() && {
  LaneWords words = std::move(words_);
  *this = PatternBatch(0, 0);
  return words;
}

void PatternBatch::mask_tails() {
  if (tail_mask_ != ~std::uint64_t{0}) {
    for (int s = 0; s < num_signals_; ++s) {
      lane(s)[words_per_lane_ - 1] &= tail_mask_;
    }
  }
}

void PatternBatch::complement_lane(int signal) {
  std::uint64_t* words = lane(signal);
  for (std::uint64_t w = 0; w < words_per_lane_; ++w) {
    words[w] = ~words[w];
  }
  if (words_per_lane_ > 0) {
    words[words_per_lane_ - 1] &= tail_mask_;
  }
}

}  // namespace ambit::logic
