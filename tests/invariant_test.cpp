// The invariant layer's own tests: a checker nobody can see firing is
// a checker that silently rots. Every test here deliberately violates
// a documented contract — a dirty PatternBatch tail word, a kernel
// that lies about its output shape — and asserts that AMBIT_CHECK
// (util/check.h) aborts with the expected report. The whole suite
// skips itself in builds without AMBIT_ENABLE_INVARIANTS (the checks
// compile to nothing there by design), so it is meaningful exactly in
// the builds that claim to enforce invariants: the sanitizer CI jobs
// and any -DAMBIT_ENABLE_INVARIANTS=ON build.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "core/evaluator.h"
#include "espresso/unate.h"
#include "logic/cover.h"
#include "logic/pattern_batch.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace ambit {
namespace {

using logic::PatternBatch;

#define SKIP_WITHOUT_INVARIANTS()                                       \
  if (!invariants_enabled()) {                                          \
    GTEST_SKIP() << "AMBIT_ENABLE_INVARIANTS is off in this build";     \
  }

/// A 3-signal, 70-pattern batch: two words per lane, 6 valid bits in
/// the tail word — room to corrupt.
PatternBatch small_batch() {
  PatternBatch batch(3, 70);
  for (std::uint64_t p = 0; p < 70; ++p) {
    batch.set(p, static_cast<int>(p % 3), true);
  }
  return batch;
}

/// Sets a bit beyond num_patterns() in the tail word of lane 0 — the
/// exact corruption the tail-mask contract forbids.
void corrupt_tail(PatternBatch& batch) {
  batch.lane(0)[batch.words_per_lane() - 1] |= ~batch.tail_mask();
}

TEST(InvariantTest, CleanBatchPassesTheProbe) {
  // Sanity both ways: the probe must be silent on a clean batch in
  // every build, so the death tests below fail for the right reason.
  PatternBatch batch = small_batch();
  batch.assert_tail_clean("InvariantTest");
  batch.slice(0, 70);
  PatternBatch dst(3, 70);
  dst.copy_patterns_from(batch, 0, 0, 70);
}

TEST(InvariantTest, SliceDiesOnCorruptTailWord) {
  SKIP_WITHOUT_INVARIANTS();
  PatternBatch batch = small_batch();
  corrupt_tail(batch);
  EXPECT_DEATH(batch.slice(0, 70), "tail padding of lane 0");
}

TEST(InvariantTest, PasteDiesOnCorruptSourceTail) {
  SKIP_WITHOUT_INVARIANTS();
  PatternBatch src = small_batch();
  corrupt_tail(src);
  PatternBatch dst(3, 70);
  EXPECT_DEATH(dst.paste(src, 0), "tail padding of lane 0");
}

TEST(InvariantTest, CopyPatternsFromDiesOnCorruptDestinationTail) {
  SKIP_WITHOUT_INVARIANTS();
  PatternBatch src = small_batch();
  PatternBatch dst(3, 70);
  corrupt_tail(dst);
  EXPECT_DEATH(dst.copy_patterns_from(src, 0, 0, 4),
               "tail padding of lane 0");
}

TEST(InvariantTest, LoadWordsRemasksInsteadOfDying) {
  // load_words and from_words are the EVALB ingestion paths (a copy,
  // and the serve layer's take-over of the payload buffer): stray tail
  // bits arrive from the network routinely, so the contract there is
  // re-mask, not abort.
  PatternBatch batch(2, 70);
  std::vector<std::uint64_t> words(batch.total_words(), ~std::uint64_t{0});
  batch.load_words(words.data(), words.size());
  const PatternBatch taken = PatternBatch::from_words(
      2, 70, logic::LaneWords(words.begin(), words.end()));
  const PatternBatch* const batches[] = {&batch, &taken};
  for (const PatternBatch* b : batches) {
    b->assert_tail_clean("InvariantTest");
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(b->lane(s)[1] & ~b->tail_mask(), 0u);
    }
  }
}

TEST(InvariantTest, CleanCubesPassThePaddingProbe) {
  // Cube's comparison and hash boundaries (operator==,
  // lexicographic_less, the complement merge keys) compare whole words
  // and probe that the padding past the last part is zero. Nothing
  // outside Cube can write its words, so every cube must pass: shapes
  // whose last word is full, partly used, or a single bit.
  for (const auto& [ni, no] : {std::pair{16, 32}, std::pair{30, 10},
                               std::pair{33, 31}, std::pair{70, 3},
                               std::pair{100, 20}, std::pair{0, 1}}) {
    logic::Cover f(ni, no);
    for (int k = 0; k < 6; ++k) {
      logic::Cube c = logic::Cube::universe(ni, no);
      if (ni > 0) {
        c.set_input((k * 7) % ni,
                    k % 2 == 0 ? logic::Literal::kZero : logic::Literal::kOne);
      }
      c.set_output(k % no, false);
      c.set_output((k + 1) % no, true);
      c.assert_padding_clean("InvariantTest");
      f.add(c);
      f.add(c);
    }
    f.sort_and_dedup();
    EXPECT_FALSE(f.empty());
    if (ni > 0) {
      EXPECT_NO_THROW(espresso::complement(f.restricted_to_output(0)));
    }
  }
}

/// An Evaluator that computes output = input 0 and breaks the contract
/// on demand: a scalar result of the wrong width, or a batch result
/// with a dirty tail.
class EvilEvaluator : public Evaluator {
 public:
  enum class Lie { kNone, kOutputWidth, kDirtyTail };
  explicit EvilEvaluator(Lie lie) : lie_(lie) {}

  int num_inputs() const override { return 2; }
  int num_outputs() const override { return 1; }

 protected:
  std::vector<bool> do_evaluate(const std::vector<bool>& inputs) const override {
    if (lie_ == Lie::kOutputWidth) {
      return {inputs[0], inputs[1]};  // two outputs, contract says one
    }
    return {inputs[0]};
  }

  void do_evaluate_words(const logic::PatternBatch& inputs,
                         logic::PatternBatch& out, std::uint64_t word_lo,
                         std::uint64_t word_hi) const override {
    std::copy(inputs.lane(0) + word_lo, inputs.lane(0) + word_hi,
              out.lane(0) + word_lo);
    if (lie_ == Lie::kDirtyTail && word_hi == out.words_per_lane()) {
      out.lane(0)[word_hi - 1] |= ~out.tail_mask();
    }
  }

 private:
  Lie lie_;
};

TEST(InvariantTest, EvaluatorDiesOnWrongScalarOutputWidth) {
  SKIP_WITHOUT_INVARIANTS();
  const EvilEvaluator evil(EvilEvaluator::Lie::kOutputWidth);
  EXPECT_DEATH(evil.evaluate(std::vector<bool>{false, true}),
               "kernel produced 2 outputs");
}

TEST(InvariantTest, EvaluatorDiesOnDirtyKernelTail) {
  SKIP_WITHOUT_INVARIANTS();
  const EvilEvaluator evil(EvilEvaluator::Lie::kDirtyTail);
  EXPECT_DEATH(evil.evaluate_batch(PatternBatch(2, 70)),
               "tail padding of lane 0");
}

TEST(InvariantTest, OutOfRankLockAcquisitionDies) {
  SKIP_WITHOUT_INVARIANTS();
  // Holding a high-ranked lock, acquiring a lower-ranked one is an
  // inversion against the canonical hierarchy (docs/CONCURRENCY.md):
  // the detector must abort BEFORE blocking, naming both ranks.
  Mutex low(LockRank::kSessionRegistry);
  Mutex high(LockRank::kThreadPool);
  const MutexLock hold(high);
  EXPECT_DEATH({ const MutexLock bad(low); },
               "out-of-rank lock acquisition.*session-registry.*"
               "thread-pool");
}

/// The deliberate double-acquire below is exactly what Clang TSA
/// rejects at compile time, so it has to hide behind this opt-out to
/// exist at all — which is the point: the STATIC layer catches it in
/// annotated code, and this test proves the DYNAMIC layer catches it
/// when someone slips past the annotations.
void acquire_ignoring_tsa(Mutex& mutex) AMBIT_NO_THREAD_SAFETY_ANALYSIS {
  mutex.lock();
}

TEST(InvariantTest, RecursiveLockAcquisitionDies) {
  SKIP_WITHOUT_INVARIANTS();
  // On std::mutex this is undefined behavior that usually deadlocks;
  // the rank detector turns it into a deterministic abort.
  Mutex mutex(LockRank::kTest);
  const MutexLock hold(mutex);
  EXPECT_DEATH(acquire_ignoring_tsa(mutex),
               "recursive acquisition of the same mutex");
}

TEST(InvariantTest, SameRankSiblingAcquisitionDies) {
  SKIP_WITHOUT_INVARIANTS();
  // Two instances of the same rank (e.g. two circuits' verify mutexes)
  // must never nest: with no defined order between siblings, A-then-B
  // on one thread and B-then-A on another is a classic deadlock.
  Mutex first(LockRank::kCircuitVerify);
  Mutex second(LockRank::kCircuitVerify);
  const MutexLock hold(first);
  EXPECT_DEATH({ const MutexLock bad(second); },
               "same-rank lock acquisition");
}

TEST(InvariantTest, WellBehavedEvaluatorSurvivesShardedPath) {
  // The contract checks ride the hot path of the sharded sweep too;
  // a lawful kernel must pass them for any worker count.
  const EvilEvaluator honest(EvilEvaluator::Lie::kNone);
  ThreadPool pool(2);
  PatternBatch batch(2, 64 * 40 + 7);
  const PatternBatch seq = honest.evaluate_batch(batch);
  const PatternBatch par = honest.evaluate_batch(batch, pool);
  EXPECT_EQ(seq, par);
}

}  // namespace
}  // namespace ambit
