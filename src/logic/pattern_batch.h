// Word-packed input/output pattern batches for bit-parallel evaluation.
//
// A PatternBatch holds N boolean patterns over S signals in transposed
// ("bit-sliced") form: one lane of ceil(N/64) uint64 words per signal,
// with pattern p stored at bit (p % 64) of word (p / 64). Evaluating a
// NOR plane over a batch then reduces to word-wide AND/OR/NOT over the
// lanes — 64 patterns per machine operation — which is what makes
// exhaustive verification and Monte-Carlo sweeps throughput-bound
// instead of branch-bound (see core/evaluator.h).
//
// The layout is deliberately identical to TruthTable's output-major
// word layout: the batch returned by evaluating every minterm in
// ascending order IS a truth table, lane for lane.
#pragma once

#include <cstdint>
#include <vector>

#include "logic/lane_kernels.h"
#include "util/aligned.h"

namespace ambit::logic {

/// The 64-byte-aligned word vector a PatternBatch stores its lanes in,
/// in the EVALB wire layout: lane 0's words, then lane 1's, and so on.
/// `resize` leaves new words unwritten (util/aligned.h), so the serve
/// layer sizes a payload's buffer and read() writes it once; from_words
/// then makes it a batch's lanes, and release_words hands an output
/// batch's lanes to the socket, both without a copy.
using LaneWords =
    std::vector<std::uint64_t,
                AlignedAllocator<std::uint64_t, lanes::kLaneAlignment>>;

/// A fixed-size batch of bit-packed patterns, one 64-bit lane set per
/// signal. Unused bits of the last word of every lane are kept zero.
class PatternBatch {
 public:
  /// An empty batch: `num_signals` lanes of `num_patterns` zero bits.
  PatternBatch(int num_signals, std::uint64_t num_patterns);

  /// The exhaustive batch over `num_inputs` signals: pattern m assigns
  /// bit i of m to signal i, for all 2^num_inputs minterms in order.
  /// Lane words follow the classic truth-table stripe patterns, so
  /// construction is O(signals · words), not O(signals · patterns).
  static PatternBatch exhaustive(int num_inputs);

  /// Takes `words` over as the lanes of a `num_signals` x
  /// `num_patterns` batch, with no copy. The word count must equal the
  /// batch's total_words(); each lane's tail padding is re-masked in
  /// place, so a frame with stray bits beyond num_patterns() cannot
  /// corrupt downstream word-parallel kernels (the load_words promise).
  static PatternBatch from_words(int num_signals, std::uint64_t num_patterns,
                                 LaneWords words);

  /// Packs a vector of same-width patterns (pattern-major to
  /// signal-major transpose).
  static PatternBatch from_patterns(
      const std::vector<std::vector<bool>>& patterns);

  int num_signals() const { return num_signals_; }
  std::uint64_t num_patterns() const { return num_patterns_; }
  std::uint64_t words_per_lane() const { return words_per_lane_; }

  bool get(std::uint64_t pattern, int signal) const;
  void set(std::uint64_t pattern, int signal, bool value);

  /// Pattern `p` unpacked back into one bool per signal.
  std::vector<bool> pattern(std::uint64_t p) const;
  void set_pattern(std::uint64_t p, const std::vector<bool>& bits);

  /// Raw lane access for word-parallel kernels. A lane is
  /// words_per_lane() consecutive uint64 values; lanes are stored
  /// contiguously signal-major, so lane(0) is also the base of the
  /// whole packed array.
  ///
  /// ALIGNMENT CONTRACT: the backing store is lanes::kLaneAlignment-
  /// byte aligned, but an individual lane pointer is aligned only when
  /// `signal * words_per_lane()` happens to land on a vector boundary.
  /// SIMD consumers must therefore use unaligned loads/stores
  /// (loadu/storeu) — see logic/lane_kernels.h.
  const std::uint64_t* lane(int signal) const;
  std::uint64_t* lane(int signal);

  /// Copies patterns [first, first + count) of every lane into a new
  /// batch. `first` must be a multiple of 64 so the copy is word-wise:
  /// lane word k of the slice IS lane word first/64 + k of the source,
  /// which is what lets SimEvaluator simulate a shard's words as a
  /// batch of their own (simulate/sim_evaluator.h) and stay
  /// bit-identical to the unsharded run. `count` must be > 0, and a
  /// partial final word is only allowed at the very end of the batch.
  PatternBatch slice(std::uint64_t first, std::uint64_t count) const;

  /// Inverse of slice: copies every lane of `src` into this batch
  /// starting at word-aligned pattern `first`. Signal counts must
  /// match; `src` must fit, and may end mid-word only at this batch's
  /// end.
  void paste(const PatternBatch& src, std::uint64_t first);

  /// Bit-granular lane copy: patterns [src_first, src_first + count)
  /// of every lane of `src` land at [dst_first, dst_first + count) of
  /// this batch, with NO alignment requirement on either offset. Bits
  /// outside the destination range — neighbouring patterns and the
  /// tail padding — are left untouched, so back-to-back copies from
  /// many sources pack a batch bit-contiguously (this is how the serve
  /// event loop fuses a turn's small requests into shared words; see
  /// Server::serve_batch). Signal counts must match and both ranges must
  /// be in bounds.
  void copy_patterns_from(const PatternBatch& src, std::uint64_t src_first,
                          std::uint64_t dst_first, std::uint64_t count);

  /// Total packed words across all lanes: num_signals * words_per_lane.
  /// This is the payload size of the serve EVALB frame.
  std::uint64_t total_words() const {
    return static_cast<std::uint64_t>(num_signals_) * words_per_lane_;
  }

  /// Overwrites every lane from `count` consecutive words — lane 0's
  /// words first, then lane 1's, and so on (the EVALB wire layout).
  /// `count` must equal total_words(). Each lane's tail padding is
  /// re-masked, so a frame with stray bits beyond num_patterns() cannot
  /// corrupt downstream word-parallel kernels.
  void load_words(const std::uint64_t* src, std::uint64_t count);

  /// Copies every lane into `dst` in the same layout; `count` must
  /// equal total_words().
  void store_words(std::uint64_t* dst, std::uint64_t count) const;

  /// Hands the lanes over in the same layout, with no copy, leaving an
  /// empty 0 x 0 batch behind.
  LaneWords release_words() &&;

  /// Complements lane `signal` over the valid pattern bits (the tail
  /// padding stays zero).
  void complement_lane(int signal);

  /// Mask selecting the valid bits of the LAST word of a lane; all
  /// earlier words are fully valid.
  std::uint64_t tail_mask() const { return tail_mask_; }

  /// Invariant probe (util/check.h): aborts via AMBIT_CHECK when any
  /// lane carries a set bit in its tail padding. No-op unless the
  /// AMBIT_ENABLE_INVARIANTS build option is on. slice/paste/
  /// copy_patterns_from/load_words/from_words run it on their operands and
  /// results, and the Evaluator runs it on every kernel result, so a
  /// kernel (or a caller scribbling through lane()) that dirties the
  /// padding is caught at the first word-parallel boundary instead of
  /// corrupting a downstream popcount. `where` names the caller in the
  /// failure report.
  void assert_tail_clean(const char* where) const;

  bool operator==(const PatternBatch& other) const = default;

 private:
  int num_signals_;
  std::uint64_t num_patterns_;
  std::uint64_t words_per_lane_;
  std::uint64_t tail_mask_;
  // Signal-major: lane s at s*words_per_lane_. Base pointer is
  // kLaneAlignment-byte aligned (see the lane() alignment contract).
  LaneWords words_;

  /// The shape checks and fields for `num_signals` x `num_patterns`,
  /// with `words` as the lanes as they are (no size check, no fill).
  PatternBatch(int num_signals, std::uint64_t num_patterns, LaneWords words);

  std::uint64_t lane_start(int signal) const;
  /// Clears every lane's tail padding (the bits past num_patterns()).
  void mask_tails();
};

}  // namespace ambit::logic
