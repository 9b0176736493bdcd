// Tests for the unified Evaluator interface and the PatternBatch
// bit-packed container: layout invariants, scalar/batch entry points,
// and the uniform input-width validation at the Evaluator boundary.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "core/classical_pla.h"
#include "core/fabric.h"
#include "core/gnor_pla.h"
#include "core/wpla.h"
#include "logic/lane_kernels.h"
#include "logic/pattern_batch.h"
#include "logic/synth_bench.h"
#include "logic/truth_table.h"
#include "pool_task.h"
#include "simulate/sim_evaluator.h"
#include "tech/technology.h"
#include "util/cpu_features.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ambit {
namespace {

using core::CellConfig;
using core::ClassicalPla;
using core::Fabric;
using core::FabricStage;
using core::GnorPla;
using core::GnorPlane;
using core::Wpla;
using logic::Cover;
using logic::PatternBatch;
using logic::TruthTable;

PatternBatch random_batch(int signals, std::uint64_t count, Rng& rng) {
  PatternBatch batch(signals, count);
  for (std::uint64_t p = 0; p < count; ++p) {
    for (int s = 0; s < signals; ++s) {
      batch.set(p, s, rng.next_bool());
    }
  }
  return batch;
}

/// The scalar reference: evaluate(), one pattern at a time, repacked.
PatternBatch scalar_reference(const Evaluator& e, const PatternBatch& inputs) {
  PatternBatch expected(e.num_outputs(), inputs.num_patterns());
  for (std::uint64_t p = 0; p < inputs.num_patterns(); ++p) {
    const std::vector<bool> out = e.evaluate(inputs.pattern(p));
    for (int j = 0; j < e.num_outputs(); ++j) {
      expected.set(p, j, out[static_cast<std::size_t>(j)]);
    }
  }
  return expected;
}

/// The tiers this host can run: the scalar reference plus the detected
/// SIMD tier, if any.
std::vector<cpu::SimdTier> available_tiers() {
  std::vector<cpu::SimdTier> tiers{cpu::SimdTier::kScalar};
  if (cpu::detected_tier() != cpu::SimdTier::kScalar) {
    tiers.push_back(cpu::detected_tier());
  }
  return tiers;
}

TEST(PatternBatchTest, SetGetRoundTrip) {
  PatternBatch batch(3, 130);  // spans three words per lane
  EXPECT_EQ(batch.num_signals(), 3);
  EXPECT_EQ(batch.num_patterns(), 130u);
  EXPECT_EQ(batch.words_per_lane(), 3u);
  batch.set(0, 0, true);
  batch.set(64, 1, true);
  batch.set(129, 2, true);
  EXPECT_TRUE(batch.get(0, 0));
  EXPECT_FALSE(batch.get(0, 1));
  EXPECT_TRUE(batch.get(64, 1));
  EXPECT_TRUE(batch.get(129, 2));
  batch.set(64, 1, false);
  EXPECT_FALSE(batch.get(64, 1));
}

TEST(PatternBatchTest, ExhaustiveMatchesMintermBits) {
  for (const int n : {1, 3, 6, 7, 9}) {
    const PatternBatch batch = PatternBatch::exhaustive(n);
    ASSERT_EQ(batch.num_patterns(), std::uint64_t{1} << n);
    for (std::uint64_t m = 0; m < batch.num_patterns(); ++m) {
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(batch.get(m, i), ((m >> i) & 1) != 0)
            << "n=" << n << " m=" << m << " i=" << i;
      }
    }
  }
}

TEST(PatternBatchTest, SubWordExhaustiveKeepsTailZero) {
  const PatternBatch batch = PatternBatch::exhaustive(3);
  EXPECT_EQ(batch.tail_mask(), 0xFFu);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(batch.lane(i)[0] & ~batch.tail_mask(), 0u);
  }
}

TEST(PatternBatchTest, ComplementLanePreservesTailPadding) {
  PatternBatch batch(1, 70);  // 6 valid bits in the second word
  batch.set(69, 0, true);
  batch.complement_lane(0);
  EXPECT_FALSE(batch.get(69, 0));
  EXPECT_TRUE(batch.get(0, 0));
  // Bits past num_patterns stay zero so NOR/complement kernels cannot
  // leak garbage between batches.
  EXPECT_EQ(batch.lane(0)[1] & ~batch.tail_mask(), 0u);
}

TEST(PatternBatchTest, FromPatternsTransposes) {
  const PatternBatch batch = PatternBatch::from_patterns(
      {{true, false}, {false, true}, {true, true}});
  EXPECT_EQ(batch.num_signals(), 2);
  EXPECT_EQ(batch.num_patterns(), 3u);
  EXPECT_EQ(batch.pattern(0), (std::vector<bool>{true, false}));
  EXPECT_EQ(batch.pattern(1), (std::vector<bool>{false, true}));
  EXPECT_EQ(batch.pattern(2), (std::vector<bool>{true, true}));
}

TEST(PatternBatchTest, SliceAndPasteRoundTrip) {
  // 150 patterns = two full words + a 22-bit tail.
  PatternBatch batch(2, 150);
  Rng rng(3);
  for (std::uint64_t p = 0; p < 150; ++p) {
    for (int s = 0; s < 2; ++s) {
      batch.set(p, s, rng.next_bool());
    }
  }
  PatternBatch rebuilt(2, 150);
  rebuilt.paste(batch.slice(0, 64), 0);
  rebuilt.paste(batch.slice(64, 86), 64);  // 86 = 64 + 22-bit tail
  EXPECT_EQ(rebuilt, batch);

  const PatternBatch tail = batch.slice(128, 22);
  EXPECT_EQ(tail.num_patterns(), 22u);
  for (std::uint64_t p = 0; p < 22; ++p) {
    EXPECT_EQ(tail.get(p, 0), batch.get(128 + p, 0));
  }
  EXPECT_EQ(tail.lane(0)[0] & ~tail.tail_mask(), 0u);
}

TEST(PatternBatchTest, CopyPatternsFromMatchesBitwiseReference) {
  // The bit-granular lane copy behind serve's per-turn fusion, checked
  // against a get/set reference over random ranges at EVERY alignment:
  // offsets straddling word boundaries on either side, sub-word and
  // multi-word counts, and full-batch copies.
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const int signals = 1 + static_cast<int>(rng.next_u64() % 4);
    const std::uint64_t src_np = 1 + rng.next_u64() % 200;
    const std::uint64_t dst_np = 1 + rng.next_u64() % 200;
    PatternBatch src(signals, src_np);
    PatternBatch dst(signals, dst_np);
    for (int s = 0; s < signals; ++s) {
      for (std::uint64_t p = 0; p < src_np; ++p) {
        src.set(p, s, rng.next_bool());
      }
      for (std::uint64_t p = 0; p < dst_np; ++p) {
        dst.set(p, s, rng.next_bool());
      }
    }
    const std::uint64_t count =
        rng.next_u64() % (std::min(src_np, dst_np) + 1);
    const std::uint64_t src_first =
        count == src_np ? 0 : rng.next_u64() % (src_np - count + 1);
    const std::uint64_t dst_first =
        count == dst_np ? 0 : rng.next_u64() % (dst_np - count + 1);
    const PatternBatch before = dst;
    dst.copy_patterns_from(src, src_first, dst_first, count);
    for (int s = 0; s < signals; ++s) {
      for (std::uint64_t p = 0; p < dst_np; ++p) {
        const bool inside = p >= dst_first && p < dst_first + count;
        const bool expected = inside ? src.get(src_first + (p - dst_first), s)
                                     : before.get(p, s);
        ASSERT_EQ(dst.get(p, s), expected)
            << "trial=" << trial << " s=" << s << " p=" << p
            << " src_first=" << src_first << " dst_first=" << dst_first
            << " count=" << count;
      }
      // Tail padding must survive any in-range copy.
      ASSERT_EQ(dst.lane(s)[dst.words_per_lane() - 1] & ~dst.tail_mask(), 0u);
    }
  }
}

TEST(PatternBatchTest, PatternCountNearWordLayoutLimitIsRejected) {
  // The lane layout computes (num_patterns + 63) / 64; a count within
  // 63 of 2^64 would wrap that sum and yield a tiny words_per_lane that
  // every downstream bounds check would accept against the wrong
  // geometry. The constructor must reject it instead (the EVALB serve
  // path re-checks the same limit against its frame budget before the
  // batch is ever built).
  EXPECT_THROW(PatternBatch(1, ~std::uint64_t{0}), Error);
  EXPECT_THROW(PatternBatch(1, ~std::uint64_t{0} - 62), Error);
  EXPECT_NO_THROW(PatternBatch(0, ~std::uint64_t{0} - 63));
}

TEST(EvaluatorTest, CellCountersAre64BitOnTheBatchPath) {
  // active_cells() is a product of two int dimensions and sizes the
  // sweep-term reservation in GnorPlane::evaluate_batch — it must be
  // 64-bit like cell_count(), not int (full-scale planes overflow int).
  static_assert(
      std::is_same_v<decltype(std::declval<const GnorPla&>().active_cells()),
                     long long>);
  static_assert(
      std::is_same_v<
          decltype(std::declval<const ClassicalPla&>().active_cells()),
          long long>);
  const Cover f = Cover::parse(2, 1, {"11 1"});
  EXPECT_EQ(GnorPla::map_cover(f).active_cells(), 3);
}

TEST(PatternBatchTest, TailMaskAllOnesOnExactWordMultiples) {
  // On an exact multiple of 64 patterns the final word is FULLY valid:
  // tail_mask must be all ones, and the masked kernels (complement,
  // load_words) must treat the last word like any other. A mask rebuilt
  // naively from num_patterns % 64 would be zero here and erase 64
  // patterns per lane.
  for (const std::uint64_t np : {64ull, 128ull, 192ull}) {
    PatternBatch batch(2, np);
    EXPECT_EQ(batch.tail_mask(), ~std::uint64_t{0}) << np << " patterns";
    EXPECT_EQ(batch.words_per_lane(), np / 64);
    batch.complement_lane(0);
    for (std::uint64_t w = 0; w < batch.words_per_lane(); ++w) {
      EXPECT_EQ(batch.lane(0)[w], ~std::uint64_t{0})
          << np << " patterns, word " << w;
    }
    std::vector<std::uint64_t> words(batch.total_words(), ~std::uint64_t{0});
    batch.load_words(words.data(), words.size());
    EXPECT_EQ(batch.lane(1)[batch.words_per_lane() - 1], ~std::uint64_t{0});
  }
}

TEST(PatternBatchTest, CopyPatternsFromWordAlignedBoundaries) {
  // Directed probes of the word-aligned fast path at the counts the
  // random trial rarely lands on: one bit short of a word, an exact
  // word, a word and a bit, and multi-word runs ending flush with the
  // destination. Checked against the get/set reference.
  Rng rng(31);
  PatternBatch src(2, 256);
  PatternBatch dst(2, 256);
  for (int s = 0; s < 2; ++s) {
    for (std::uint64_t p = 0; p < 256; ++p) {
      src.set(p, s, rng.next_bool());
      dst.set(p, s, rng.next_bool());
    }
  }
  for (const std::uint64_t src_first : {0ull, 64ull}) {
    for (const std::uint64_t dst_first : {0ull, 128ull}) {
      for (const std::uint64_t count :
           {0ull, 1ull, 63ull, 64ull, 65ull, 127ull, 128ull}) {
        PatternBatch copy = dst;
        const PatternBatch before = copy;
        copy.copy_patterns_from(src, src_first, dst_first, count);
        for (int s = 0; s < 2; ++s) {
          for (std::uint64_t p = 0; p < 256; ++p) {
            const bool inside = p >= dst_first && p < dst_first + count;
            const bool expected =
                inside ? src.get(src_first + (p - dst_first), s)
                       : before.get(p, s);
            ASSERT_EQ(copy.get(p, s), expected)
                << "s=" << s << " p=" << p << " src_first=" << src_first
                << " dst_first=" << dst_first << " count=" << count;
          }
        }
      }
    }
  }
}

TEST(PatternBatchTest, SliceAndPasteAtExactWordMultiples) {
  // A 128-pattern batch sliced into two 64-pattern halves: every piece
  // has an all-ones tail mask and reassembles bit-exactly.
  PatternBatch batch(2, 128);
  Rng rng(37);
  for (std::uint64_t p = 0; p < 128; ++p) {
    for (int s = 0; s < 2; ++s) {
      batch.set(p, s, rng.next_bool());
    }
  }
  const PatternBatch lo = batch.slice(0, 64);
  const PatternBatch hi = batch.slice(64, 64);
  EXPECT_EQ(lo.tail_mask(), ~std::uint64_t{0});
  EXPECT_EQ(hi.tail_mask(), ~std::uint64_t{0});
  PatternBatch rebuilt(2, 128);
  rebuilt.paste(lo, 0);
  rebuilt.paste(hi, 64);
  EXPECT_EQ(rebuilt, batch);
}

TEST(PatternBatchTest, CopyPatternsFromValidatesRanges) {
  PatternBatch src(2, 50);
  PatternBatch dst(2, 50);
  PatternBatch narrow(1, 50);
  EXPECT_THROW(narrow.copy_patterns_from(src, 0, 0, 10), Error);
  EXPECT_THROW(dst.copy_patterns_from(src, 45, 0, 10), Error);
  EXPECT_THROW(dst.copy_patterns_from(src, 0, 45, 10), Error);
  EXPECT_NO_THROW(dst.copy_patterns_from(src, 0, 0, 50));
}

TEST(EvaluatorTest, BitPackedFusionMatchesSeparateEvaluation) {
  // The premise of serve's per-turn fusion: every batch
  // kernel is bit-local (output bit b of lane word w depends only on
  // bit b of word w of the inputs), so many small batches packed
  // back-to-back at BIT granularity evaluate to exactly the
  // concatenation of their separate results — no word alignment
  // between requests required.
  const Cover cover =
      Cover::parse(4, 3, {"11-- 101", "0-1- 010", "-01- 110", "1--1 011"});
  const GnorPla pla = GnorPla::map_cover(cover);
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<PatternBatch> requests;
    std::uint64_t total = 0;
    const int n = 2 + static_cast<int>(rng.next_u64() % 6);
    for (int r = 0; r < n; ++r) {
      const std::uint64_t np = 1 + rng.next_u64() % 90;  // straddles words
      PatternBatch batch(pla.num_inputs(), np);
      for (std::uint64_t p = 0; p < np; ++p) {
        for (int s = 0; s < pla.num_inputs(); ++s) {
          batch.set(p, s, rng.next_bool());
        }
      }
      total += np;
      requests.push_back(std::move(batch));
    }
    PatternBatch fused(pla.num_inputs(), total);
    std::uint64_t first = 0;
    for (const PatternBatch& request : requests) {
      fused.copy_patterns_from(request, 0, first, request.num_patterns());
      first += request.num_patterns();
    }
    const PatternBatch fused_out = pla.evaluate_batch(fused);
    first = 0;
    for (const PatternBatch& request : requests) {
      const PatternBatch expected = pla.evaluate_batch(request);
      PatternBatch got(pla.num_outputs(), request.num_patterns());
      got.copy_patterns_from(fused_out, first, 0, request.num_patterns());
      ASSERT_EQ(got, expected) << "trial=" << trial;
      first += request.num_patterns();
    }
  }
}

TEST(PatternBatchTest, WordIoRoundTrip) {
  // load_words/store_words carry the serve EVALB frame: lane-major,
  // words_per_lane words per signal. 150 patterns = a 22-bit tail word.
  PatternBatch batch(3, 150);
  Rng rng(11);
  for (std::uint64_t p = 0; p < 150; ++p) {
    for (int s = 0; s < 3; ++s) {
      batch.set(p, s, rng.next_bool());
    }
  }
  EXPECT_EQ(batch.total_words(), 3u * 3u);
  std::vector<std::uint64_t> words(batch.total_words());
  batch.store_words(words.data(), words.size());
  // The wire layout is the lanes back to back.
  for (int s = 0; s < 3; ++s) {
    for (std::uint64_t w = 0; w < batch.words_per_lane(); ++w) {
      EXPECT_EQ(words[static_cast<std::size_t>(s) * batch.words_per_lane() + w],
                batch.lane(s)[w]);
    }
  }
  PatternBatch rebuilt(3, 150);
  rebuilt.load_words(words.data(), words.size());
  EXPECT_EQ(rebuilt, batch);
}

TEST(PatternBatchTest, LoadWordsMasksTailPadding) {
  // A frame with stray bits beyond num_patterns must come out clean —
  // word-parallel kernels rely on zero tail padding. Both ingestion
  // paths keep the promise: the copy (load_words) and the take-over of
  // a payload's own buffer (from_words).
  PatternBatch loaded(2, 70);  // words_per_lane = 2, 6-bit tail
  std::vector<std::uint64_t> words(loaded.total_words(),
                                   ~std::uint64_t{0});  // all bits set
  loaded.load_words(words.data(), words.size());
  const PatternBatch taken = PatternBatch::from_words(
      2, 70, logic::LaneWords(words.begin(), words.end()));
  const PatternBatch* const batches[] = {&loaded, &taken};
  for (const PatternBatch* batch : batches) {
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(batch->lane(s)[0], ~std::uint64_t{0});
      EXPECT_EQ(batch->lane(s)[1] & ~batch->tail_mask(), 0u);
      EXPECT_EQ(batch->lane(s)[1], batch->tail_mask());
    }
  }
  EXPECT_EQ(taken, loaded);
}

TEST(PatternBatchTest, FromWordsTakesTheBufferAndReleaseHandsItBack) {
  // No copy either way: the batch's lanes ARE the buffer it was given,
  // and release_words hands that same buffer on, leaving 0 x 0 behind.
  logic::LaneWords words(3 * 3);
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = i + 1;
  }
  const std::uint64_t* storage = words.data();
  PatternBatch batch = PatternBatch::from_words(3, 150, std::move(words));
  EXPECT_EQ(batch.lane(0), storage);
  EXPECT_EQ(batch.lane(1)[0], 4u);
  logic::LaneWords back = std::move(batch).release_words();
  EXPECT_EQ(back.data(), storage);
  EXPECT_EQ(back.size(), 9u);
  EXPECT_EQ(batch.num_signals(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(batch.num_patterns(), 0u);
}

TEST(PatternBatchTest, WordIoRejectsWrongCounts) {
  PatternBatch batch(2, 70);
  std::vector<std::uint64_t> words(batch.total_words() + 1);
  EXPECT_THROW(batch.load_words(words.data(), words.size()), Error);
  EXPECT_THROW(batch.store_words(words.data(), batch.total_words() - 1),
               Error);
  EXPECT_THROW(PatternBatch::from_words(2, 70, logic::LaneWords(5)), Error);
  EXPECT_THROW(PatternBatch::from_words(2, 70, logic::LaneWords(3)), Error);
}

TEST(PatternBatchTest, SliceRejectsMisalignedAndOutOfRange) {
  const PatternBatch batch(1, 130);
  EXPECT_THROW(batch.slice(3, 64), Error);    // not word-aligned
  EXPECT_THROW(batch.slice(64, 100), Error);  // past the end
  EXPECT_THROW(batch.slice(0, 70), Error);    // partial word mid-batch
  PatternBatch dst(1, 130);
  EXPECT_THROW(dst.paste(batch.slice(0, 64), 32), Error);  // misaligned
  PatternBatch narrow(2, 64);
  EXPECT_THROW(dst.paste(narrow, 0), Error);  // signal count mismatch
}

// ---------------------------------------------------------------------------
// Sharded parallel evaluation: bit-identical to single-thread for every
// circuit type and for pattern counts that are NOT multiples of 64.
// ---------------------------------------------------------------------------

TEST(EvaluatorTest, ParallelBatchBitIdenticalToSequential) {
  const Cover f = Cover::parse(6, 3, {"11---- 100", "--11-- 010",
                                      "----11 001", "1--0-1 110",
                                      "0-1-0- 011"});
  const GnorPla pla = GnorPla::map_cover(f);
  ThreadPool pool(3);
  Rng rng(11);
  // 4000 patterns: 62 full words + a 32-bit tail; also a small batch
  // that falls through to the sequential path, and the exhaustive one.
  for (const std::uint64_t count : {40ull, 1000ull, 4000ull}) {
    PatternBatch inputs(6, count);
    for (std::uint64_t p = 0; p < count; ++p) {
      for (int s = 0; s < 6; ++s) {
        inputs.set(p, s, rng.next_bool());
      }
    }
    EXPECT_EQ(pla.evaluate_batch(inputs, pool), pla.evaluate_batch(inputs))
        << count << " patterns";
  }
  EXPECT_EQ(exhaustive_truth_table(pla, pool), exhaustive_truth_table(pla));
}

TEST(EvaluatorTest, ParallelBatchMatchesAcrossCircuitTypes) {
  const Cover f = Cover::parse(5, 2, {"11--- 10", "--1-1 01", "0--0- 11"});
  ThreadPool pool(4);
  const PatternBatch inputs = PatternBatch::exhaustive(5);
  const GnorPla gnor = GnorPla::map_cover(f);
  const ClassicalPla classical = ClassicalPla::map_cover(f);
  EXPECT_EQ(gnor.evaluate_batch(inputs, pool), gnor.evaluate_batch(inputs));
  EXPECT_EQ(classical.evaluate_batch(inputs, pool),
            classical.evaluate_batch(inputs));

  const Cover a = Cover::parse(5, 1, {"11--- 1"});
  const Cover b = Cover::parse(6, 1, {"--1--- 1", "-----1 1"});
  const Wpla wpla(a, b, 5);
  EXPECT_EQ(wpla.evaluate_batch(inputs, pool), wpla.evaluate_batch(inputs));
}

TEST(EvaluatorTest, ParallelBatchValidatesWidthAtBoundary) {
  const Cover f = Cover::parse(3, 1, {"11- 1"});
  const GnorPla pla = GnorPla::map_cover(f);
  ThreadPool pool(2);
  EXPECT_THROW(pla.evaluate_batch(PatternBatch(4, 100), pool), Error);
}

// ---------------------------------------------------------------------------
// Boundary pattern counts: one bit short of a word, an exact word, a
// word and a bit — where tail_mask flips between partial and all-ones —
// across every circuit type and every SIMD tier this host can run.
// ---------------------------------------------------------------------------

void expect_batch_matches_scalar_at_boundaries(const Evaluator& e,
                                               const char* what) {
  Rng rng(67);
  const std::vector<cpu::SimdTier> tiers = available_tiers();
  const cpu::SimdTier entry = cpu::active_tier();
  for (const std::uint64_t count :
       {1ull, 63ull, 64ull, 65ull, 127ull, 128ull, 129ull}) {
    const PatternBatch inputs = random_batch(e.num_inputs(), count, rng);
    const PatternBatch expected = scalar_reference(e, inputs);
    for (const cpu::SimdTier tier : tiers) {
      cpu::force_tier(tier);
      const PatternBatch got = e.evaluate_batch(inputs);
      EXPECT_EQ(got, expected) << what << " diverges at " << count
                               << " patterns on the " << cpu::tier_name(tier)
                               << " tier";
      got.assert_tail_clean("boundary-count batch result");
    }
  }
  cpu::force_tier(entry);
}

TEST(EvaluatorTest, BatchBoundaryCountsMatchScalarAcrossCircuitTypes) {
  const Cover f = Cover::parse(5, 3, {"11--- 100", "--1-1 010", "0--0- 111",
                                      "-10-1 001"});
  const GnorPla gnor = GnorPla::map_cover(f);
  expect_batch_matches_scalar_at_boundaries(gnor, "GnorPla");
  expect_batch_matches_scalar_at_boundaries(ClassicalPla::map_cover(f),
                                            "ClassicalPla");

  const Cover a = Cover::parse(5, 1, {"11--- 1", "--0-1 1"});
  const Cover b = Cover::parse(6, 1, {"--1--- 1", "-----1 1"});
  expect_batch_matches_scalar_at_boundaries(Wpla(a, b, 5), "Wpla");

  Fabric fabric(5);
  fabric.add_stage(FabricStage(Fabric::identity_routing(5, 5),
                               gnor.product_plane()));
  expect_batch_matches_scalar_at_boundaries(fabric, "Fabric");
}

// ---------------------------------------------------------------------------
// Compiled sweep programs: a plane compiles its cells into lane-kernel
// sweep rows as they are set, and GnorPla fuses its two planes tile by
// tile. Reprogramming must reach the next evaluation, and tile edges
// must be invisible in the result.
// ---------------------------------------------------------------------------

TEST(EvaluatorTest, ReprogrammedCellsReachTheNextBatch) {
  // Evaluate, reprogram, evaluate again: a program cached at the first
  // evaluation (or copied stale into a Fabric stage) would answer with
  // the old cells. Every batch is checked against the scalar path,
  // which reads the cells directly.
  const Cover f = Cover::parse(5, 3, {"11--- 100", "--0-1 010", "0--1- 111",
                                      "-10-0 001"});
  const PatternBatch inputs = PatternBatch::exhaustive(5);
  ThreadPool pool(2);

  GnorPla pla = GnorPla::map_cover(f);
  EXPECT_EQ(pla.evaluate_batch(inputs), scalar_reference(pla, inputs));
  pla.product_plane().set_cell(0, 4, CellConfig::kInvert);  // insert
  pla.product_plane().set_cell(1, 2, CellConfig::kOff);     // erase
  pla.product_plane().set_cell(2, 0, CellConfig::kInvert);  // flip polarity
  pla.output_plane().set_cell(2, 1, CellConfig::kPass);
  pla.set_buffer_inverted(1, false);
  EXPECT_EQ(pla.evaluate_batch(inputs), scalar_reference(pla, inputs));
  EXPECT_EQ(pla.evaluate_batch(inputs, pool), scalar_reference(pla, inputs));

  GnorPlane plane = pla.product_plane();
  Fabric before(5);
  before.add_stage(FabricStage(Fabric::identity_routing(5, 5), plane));
  EXPECT_EQ(before.evaluate_batch(inputs), scalar_reference(before, inputs));
  plane.set_cell(3, 3, CellConfig::kPass);
  plane.set_cell(3, 1, CellConfig::kOff);
  Fabric after(5);
  after.add_stage(FabricStage(Fabric::identity_routing(5, 5), plane));
  EXPECT_EQ(after.evaluate_batch(inputs), scalar_reference(after, inputs));
  EXPECT_FALSE(after.evaluate_batch(inputs) == before.evaluate_batch(inputs))
      << "the reprogrammed cells should change the function";

  // The classical PLA through its own mutators. Product 3 ends up with
  // both rails of input 2 connected, x2 and ¬x2, so it is constant 0:
  // a shape map_cover never builds.
  ClassicalPla classical = ClassicalPla::map_cover(f);
  EXPECT_EQ(classical.evaluate_batch(inputs),
            scalar_reference(classical, inputs));
  classical.set_and_plane(0, 9, true);   // insert the ¬x4 rail
  classical.set_and_plane(1, 4, false);  // erase the x2 rail
  classical.set_and_plane(3, 5, true);   // ¬x2 beside the x2 rail
  classical.set_or_plane(2, 1, true);
  classical.set_or_plane(0, 0, false);
  classical.set_buffer_inverted(1, false);
  ASSERT_TRUE(classical.and_plane_connected(3, 4) &&
              classical.and_plane_connected(3, 5));
  EXPECT_EQ(classical.evaluate_products(std::vector<bool>(5, false))[3],
            false);
  EXPECT_EQ(classical.evaluate_products(std::vector<bool>(5, true))[3],
            false);
  EXPECT_EQ(classical.evaluate_batch(inputs),
            scalar_reference(classical, inputs));
  EXPECT_EQ(classical.evaluate_batch(inputs, pool),
            scalar_reference(classical, inputs));

  // The same plane, reprogrammed at random — every insert, erase and
  // overwrite position inside a row's sorted terms — against the scalar
  // row evaluation after every step.
  Rng rng(71);
  const PatternBatch wide = PatternBatch::exhaustive(7);
  GnorPlane random_plane(4, 7);
  for (int step = 0; step < 300; ++step) {
    const int row = static_cast<int>(rng.next_u64() % 4);
    const int col = static_cast<int>(rng.next_u64() % 7);
    random_plane.set_cell(row, col,
                          static_cast<CellConfig>(rng.next_u64() % 3));
    const PatternBatch got = random_plane.evaluate_batch(wide);
    for (std::uint64_t p = 0; p < wide.num_patterns(); ++p) {
      ASSERT_EQ(got.pattern(p), random_plane.evaluate(wide.pattern(p)))
          << "step " << step << " pattern " << p << "\n"
          << random_plane.to_ascii();
    }
  }
}

TEST(EvaluatorTest, FusedTileBoundariesMatchScalarAndSimulation) {
  // GnorPla sweeps in tiles of lanes::tile_words(products) words. 512
  // products make the tile 64 words (4096 patterns), so the counts below
  // end one word short of a tile, exactly on it, one word past it, and
  // with a partial tail word in the next tile — on every tier, through
  // the sequential and the sharded path.
  const logic::SynthSpec spec{.num_inputs = 6,
                              .num_outputs = 3,
                              .num_cubes = 512,
                              .literals_per_cube = 3};
  const Cover cover = logic::generate_cover(spec, 5);
  const GnorPla pla = GnorPla::map_cover(cover);
  const ClassicalPla classical = ClassicalPla::map_cover(cover);
  const std::uint64_t tile = logic::lanes::tile_words(
      static_cast<std::uint64_t>(pla.num_products()), ~std::uint64_t{0});
  ASSERT_GE(tile, 2u);
  const simulate::SimEvaluator sim(pla, tech::default_cnfet_electrical());
  ThreadPool pool(3);
  Rng rng(73);
  const cpu::SimdTier entry = cpu::active_tier();
  for (const std::uint64_t count :
       {(tile - 1) * 64, tile * 64, (tile + 1) * 64, 2 * tile * 64 + 1}) {
    const PatternBatch inputs = random_batch(pla.num_inputs(), count, rng);
    const PatternBatch expected = scalar_reference(pla, inputs);
    for (const cpu::SimdTier tier : available_tiers()) {
      cpu::force_tier(tier);
      EXPECT_EQ(pla.evaluate_batch(inputs), expected)
          << count << " patterns on the " << cpu::tier_name(tier) << " tier";
      EXPECT_EQ(pla.evaluate_batch(inputs, pool), expected)
          << count << " patterns, sharded, on the " << cpu::tier_name(tier)
          << " tier";
      EXPECT_EQ(classical.evaluate_batch(inputs), expected)
          << "ClassicalPla, " << count << " patterns on the "
          << cpu::tier_name(tier) << " tier";
      EXPECT_EQ(classical.evaluate_batch(inputs, pool), expected)
          << "ClassicalPla, " << count << " patterns, sharded, on the "
          << cpu::tier_name(tier) << " tier";
    }
    // The switch-level oracle on the patterns either side of every tile
    // edge and at the batch end.
    for (const std::uint64_t p :
         {tile * 64 - 1, tile * 64, count - 2, count - 1}) {
      if (p < count) {
        EXPECT_EQ(sim.evaluate(inputs.pattern(p)), expected.pattern(p))
            << "pattern " << p << " of " << count;
      }
    }
  }
  cpu::force_tier(entry);
}

TEST(EvaluatorTest, WideInputStageTilesMatchScalar) {
  // A stage that reads more caller lanes than the program writes tile
  // lanes: 300 inputs against 4 products. A tile of 300 lanes is
  // tile_words(300) = 104 words, so 40,037 patterns (626 words, the
  // last one 37 bits) take six full tiles and a partial seventh. The
  // sequential and the sharded sweep must agree on every tier, and with
  // the scalar path on the patterns either side of each tile edge.
  const logic::SynthSpec spec{.num_inputs = 300,
                              .num_outputs = 2,
                              .num_cubes = 4,
                              .literals_per_cube = 2};
  const GnorPla pla = GnorPla::map_cover(logic::generate_cover(spec, 7));
  ASSERT_EQ(pla.num_products(), 4);
  const std::uint64_t tile = logic::lanes::tile_words(300, ~std::uint64_t{0});
  const std::uint64_t count = 40'037;
  PatternBatch inputs(300, count);
  Rng rng(83);
  for (int s = 0; s < inputs.num_signals(); ++s) {
    for (std::uint64_t w = 0; w < inputs.words_per_lane(); ++w) {
      inputs.lane(s)[w] = rng.next_u64();
    }
    inputs.lane(s)[inputs.words_per_lane() - 1] &= inputs.tail_mask();
  }
  ASSERT_GE(inputs.words_per_lane(), 6 * tile);
  std::vector<std::uint64_t> samples;
  for (std::uint64_t p = 0; p < count; p += 251) {
    samples.push_back(p);
  }
  for (std::uint64_t edge = tile * 64; edge < count; edge += tile * 64) {
    samples.push_back(edge - 1);
    samples.push_back(edge);
  }
  samples.push_back(count - 1);
  ThreadPool pool(3);
  const cpu::SimdTier entry = cpu::active_tier();
  for (const cpu::SimdTier tier : available_tiers()) {
    cpu::force_tier(tier);
    const PatternBatch sequential = pla.evaluate_batch(inputs);
    EXPECT_EQ(pla.evaluate_batch(inputs, pool), sequential)
        << "sharded on the " << cpu::tier_name(tier) << " tier";
    for (const std::uint64_t p : samples) {
      ASSERT_EQ(sequential.pattern(p), pla.evaluate(inputs.pattern(p)))
          << "pattern " << p << " on the " << cpu::tier_name(tier) << " tier";
    }
  }
  cpu::force_tier(entry);
}

TEST(EvaluatorTest, ShardedFromPoolTaskMatchesSequential) {
  // The serve event loop evaluates every request in a task on the pool
  // it shards through. A sharded call made from such a task shards
  // across the idle workers; the result must still be bit-identical to
  // the sequential sweep, for every circuit type.
  const Cover f = Cover::parse(6, 3, {"11---- 100", "--11-- 010",
                                      "----11 001", "1--0-1 110",
                                      "0-1-0- 011"});
  const GnorPla gnor = GnorPla::map_cover(f);
  const ClassicalPla classical = ClassicalPla::map_cover(f);
  const Cover a = Cover::parse(6, 1, {"11---- 1", "--0-1- 1"});
  const Cover b = Cover::parse(7, 1, {"--1---- 1", "------1 1"});
  const Wpla wpla(a, b, 6);
  Fabric fabric(6);
  fabric.add_stage(FabricStage(Fabric::identity_routing(6, 6),
                               gnor.product_plane()));
  fabric.add_stage(FabricStage(Fabric::identity_routing(5, 5),
                               gnor.output_plane(), /*feed=*/true));
  ThreadPool pool(3);
  Rng rng(79);
  for (const std::uint64_t count : {4000ull, 20000ull}) {
    const PatternBatch inputs = random_batch(6, count, rng);
    for (const Evaluator* e :
         {static_cast<const Evaluator*>(&gnor),
          static_cast<const Evaluator*>(&classical),
          static_cast<const Evaluator*>(&wpla),
          static_cast<const Evaluator*>(&fabric)}) {
      const PatternBatch expected = e->evaluate_batch(inputs);
      PatternBatch from_task(e->num_outputs(), count);
      testing_support::run_as_submitted_task(
          pool, [&] { from_task = e->evaluate_batch(inputs, pool); });
      EXPECT_EQ(from_task, expected) << count << " patterns";
      EXPECT_EQ(e->evaluate_batch(inputs, pool), expected) << count;
    }
  }
}

TEST(EvaluatorTest, ZeroPatternBatchAcrossCircuitTypes) {
  // A 0-pattern batch is a legal (if pointless) request: the kernels
  // must return an empty, well-shaped result instead of tripping over a
  // zero-word lane.
  const Cover f = Cover::parse(4, 2, {"11-- 10", "--11 01"});
  const GnorPla gnor = GnorPla::map_cover(f);
  const ClassicalPla classical = ClassicalPla::map_cover(f);
  const Wpla wpla(Cover::parse(4, 1, {"11-- 1"}),
                  Cover::parse(5, 2, {"--1-- 10", "----1 01"}), 4);
  Fabric fabric(4);
  fabric.add_stage(FabricStage(Fabric::identity_routing(4, 4),
                               gnor.product_plane(), /*feed=*/true));
  for (const Evaluator* e :
       {static_cast<const Evaluator*>(&gnor),
        static_cast<const Evaluator*>(&classical),
        static_cast<const Evaluator*>(&wpla),
        static_cast<const Evaluator*>(&fabric)}) {
    const PatternBatch out = e->evaluate_batch(PatternBatch(4, 0));
    EXPECT_EQ(out.num_patterns(), 0u);
    EXPECT_EQ(out.num_signals(), e->num_outputs());
    EXPECT_EQ(out.words_per_lane(), 0u);
  }
}

TEST(EvaluatorTest, ExhaustiveTruthTableMatchesCover) {
  const Cover f = Cover::parse(4, 2, {"11-- 10", "1-1- 10", "--11 01",
                                      "0--1 01"});
  const GnorPla pla = GnorPla::map_cover(f);
  EXPECT_EQ(exhaustive_truth_table(pla), TruthTable::from_cover(f));
  EXPECT_TRUE(equivalent(pla, TruthTable::from_cover(f)));
  // And the two architectures agree with each other.
  const ClassicalPla classical = ClassicalPla::map_cover(f);
  EXPECT_TRUE(equivalent(pla, classical));
}

// ---------------------------------------------------------------------------
// Uniform width validation: every circuit type raises the SAME error,
// from the Evaluator boundary, on both the scalar and batch paths.
// ---------------------------------------------------------------------------

void expect_width_error(const Evaluator& e) {
  const std::vector<bool> wrong(static_cast<std::size_t>(e.num_inputs() + 1));
  const PatternBatch bad_batch(e.num_inputs() + 1, 10);
  for (const char* entry : {"scalar", "batch"}) {
    try {
      if (std::string(entry) == "scalar") {
        e.evaluate(wrong);
      } else {
        e.evaluate_batch(bad_batch);
      }
      FAIL() << entry << " path accepted a wrong-width input";
    } catch (const Error& err) {
      EXPECT_NE(std::string(err.what()).find("input width mismatch"),
                std::string::npos)
          << entry << " path raised a non-uniform error: " << err.what();
    }
  }
}

TEST(EvaluatorTest, WidthValidationIsUniformAcrossCircuitTypes) {
  const Cover f = Cover::parse(3, 1, {"11- 1", "0-1 1"});
  const GnorPla gnor = GnorPla::map_cover(f);
  expect_width_error(gnor);
  expect_width_error(ClassicalPla::map_cover(f));

  const Cover a = Cover::parse(3, 1, {"11- 1"});
  const Cover b = Cover::parse(4, 1, {"--1- 1", "---1 1"});
  expect_width_error(Wpla(a, b, 3));

  Fabric fabric(3);
  fabric.add_stage(FabricStage(Fabric::identity_routing(3, 3),
                               gnor.product_plane()));
  expect_width_error(fabric);
}

TEST(EvaluatorTest, CorrectWidthIsAcceptedAfterMismatch) {
  const Cover f = Cover::parse(2, 1, {"10 1"});
  const GnorPla pla = GnorPla::map_cover(f);
  EXPECT_THROW(pla.evaluate({true}), Error);
  EXPECT_NO_THROW(pla.evaluate({true, false}));
  EXPECT_THROW(pla.evaluate_batch(PatternBatch(3, 4)), Error);
  EXPECT_NO_THROW(pla.evaluate_batch(PatternBatch(2, 4)));
}

}  // namespace
}  // namespace ambit
