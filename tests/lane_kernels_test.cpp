// Tests for the SIMD lane-kernel layer (logic/lane_kernels.h) and its
// runtime dispatch policy (util/cpu_features.h): every tier this host
// can run must be BIT-IDENTICAL to the portable u64 reference on the
// primitive kernels and on full NOR-plane sweeps, across word counts
// that straddle every vector-strip and cache-tile boundary, and the
// force_tier/active_tier hooks must clamp and restore as documented.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "logic/lane_kernels.h"
#include "logic/pattern_batch.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace ambit {
namespace {

using logic::PatternBatch;
namespace lanes = logic::lanes;

/// Restores the dispatch tier active at construction — tests that call
/// cpu::force_tier must not leak their override into later tests.
class TierGuard {
 public:
  TierGuard() : entry_(cpu::active_tier()) {}
  ~TierGuard() { cpu::force_tier(entry_); }

 private:
  cpu::SimdTier entry_;
};

/// The tiers this host can actually execute: always the scalar
/// reference, plus the detected SIMD tier when there is one.
std::vector<cpu::SimdTier> available_tiers() {
  std::vector<cpu::SimdTier> tiers{cpu::SimdTier::kScalar};
  if (cpu::detected_tier() != cpu::SimdTier::kScalar) {
    tiers.push_back(cpu::detected_tier());
  }
  return tiers;
}

std::vector<std::uint64_t> random_words(std::uint64_t n, Rng& rng) {
  std::vector<std::uint64_t> words(n);
  for (std::uint64_t& w : words) {
    w = rng.next_u64();
  }
  return words;
}

/// Fills every lane of `batch` with random words and re-masks the tail.
void randomize(PatternBatch& batch, Rng& rng) {
  const std::uint64_t wpl = batch.words_per_lane();
  for (int s = 0; s < batch.num_signals(); ++s) {
    std::uint64_t* lane = batch.lane(s);
    for (std::uint64_t w = 0; w < wpl; ++w) {
      lane[w] = rng.next_u64();
    }
    if (wpl > 0) {
      lane[wpl - 1] &= batch.tail_mask();
    }
  }
}

// ---------------------------------------------------------------------------
// cpu_features: detection, naming, and the force_tier test hook.
// ---------------------------------------------------------------------------

TEST(CpuFeaturesTest, TierNamesAreStable) {
  EXPECT_STREQ(cpu::tier_name(cpu::SimdTier::kScalar), "scalar");
  EXPECT_STREQ(cpu::tier_name(cpu::SimdTier::kNeon), "neon");
  EXPECT_STREQ(cpu::tier_name(cpu::SimdTier::kAvx2), "avx2");
}

TEST(CpuFeaturesTest, ActiveTierFollowsForceTier) {
  TierGuard guard;
  EXPECT_EQ(cpu::force_tier(cpu::SimdTier::kScalar), cpu::SimdTier::kScalar);
  EXPECT_EQ(cpu::active_tier(), cpu::SimdTier::kScalar);
  const cpu::SimdTier installed = cpu::force_tier(cpu::detected_tier());
  EXPECT_EQ(installed, cpu::detected_tier());
  EXPECT_EQ(cpu::active_tier(), installed);
}

TEST(CpuFeaturesTest, ForceTierClampsToWhatTheHostSupports) {
  TierGuard guard;
  for (const cpu::SimdTier asked :
       {cpu::SimdTier::kNeon, cpu::SimdTier::kAvx2}) {
    const cpu::SimdTier installed = cpu::force_tier(asked);
    if (asked == cpu::detected_tier()) {
      EXPECT_EQ(installed, asked);
    } else {
      EXPECT_EQ(installed, cpu::SimdTier::kScalar)
          << "asking for an unavailable tier must fall back to scalar";
    }
    EXPECT_EQ(cpu::active_tier(), installed);
  }
}

TEST(LaneKernelsTest, DispatchTableMatchesActiveTier) {
  TierGuard guard;
  for (const cpu::SimdTier tier : available_tiers()) {
    cpu::force_tier(tier);
    EXPECT_STREQ(lanes::kernels().name, cpu::tier_name(tier));
  }
}

TEST(LaneKernelsTest, KernelsForClampsUnavailableTiers) {
  EXPECT_STREQ(lanes::kernels_for(cpu::SimdTier::kScalar).name, "scalar");
  for (const cpu::SimdTier tier :
       {cpu::SimdTier::kNeon, cpu::SimdTier::kAvx2}) {
    const lanes::LaneKernels& table = lanes::kernels_for(tier);
    if (tier == cpu::detected_tier()) {
      EXPECT_STREQ(table.name, cpu::tier_name(tier));
    } else {
      EXPECT_STREQ(table.name, "scalar");
    }
  }
}

// ---------------------------------------------------------------------------
// Primitive kernels: every tier bit-identical to the u64 reference at
// word counts straddling the vector strips (4/8 words) on both sides.
// ---------------------------------------------------------------------------

TEST(LaneKernelsTest, OrPrimitivesBitIdenticalAcrossTiers) {
  Rng rng(91);
  for (const cpu::SimdTier tier : available_tiers()) {
    const lanes::LaneKernels& table = lanes::kernels_for(tier);
    for (const std::uint64_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u,
                                  17u, 31u, 32u, 33u, 64u, 100u}) {
      const std::vector<std::uint64_t> src = random_words(n, rng);
      const std::vector<std::uint64_t> base = random_words(n, rng);

      std::vector<std::uint64_t> expected = base;
      lanes::scalar_kernels().or_into(expected.data(), src.data(), n);
      std::vector<std::uint64_t> got = base;
      table.or_into(got.data(), src.data(), n);
      ASSERT_EQ(got, expected) << table.name << " or_into n=" << n;

      expected = base;
      lanes::scalar_kernels().or_not_into(expected.data(), src.data(), n);
      got = base;
      table.or_not_into(got.data(), src.data(), n);
      ASSERT_EQ(got, expected) << table.name << " or_not_into n=" << n;
    }
  }
}

TEST(LaneKernelsTest, ComplementMaskedBitIdenticalAcrossTiers) {
  Rng rng(92);
  // Both a partial tail mask and the ALL-ONES mask an exact multiple of
  // 64 patterns produces — the latter must complement the final word
  // fully, not clear it.
  for (const std::uint64_t tail_mask :
       {std::uint64_t{0x3FF}, ~std::uint64_t{0}}) {
    for (const cpu::SimdTier tier : available_tiers()) {
      const lanes::LaneKernels& table = lanes::kernels_for(tier);
      for (const std::uint64_t n : {1u, 2u, 4u, 5u, 8u, 9u, 17u, 33u}) {
        const std::vector<std::uint64_t> base = random_words(n, rng);
        std::vector<std::uint64_t> expected = base;
        lanes::scalar_kernels().complement_masked(expected.data(), n,
                                                  tail_mask);
        std::vector<std::uint64_t> got = base;
        table.complement_masked(got.data(), n, tail_mask);
        ASSERT_EQ(got, expected)
            << table.name << " complement_masked n=" << n
            << " tail_mask=" << tail_mask;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Plane sweeps: the composite kernel every evaluator rides. Random CSR
// planes over pattern counts that land a word short of, exactly on, and
// a bit past every word/strip boundary.
// ---------------------------------------------------------------------------

TEST(LaneKernelsTest, PlaneSweepBitIdenticalAcrossTiers) {
  TierGuard guard;
  Rng rng(93);
  const int num_in_lanes = 5;
  const int num_rows = 17;
  // 63/64/65 and 127/128/129 cross the word boundary on both sides of
  // the tail mask; 513 and 1031 cross the 8- and 16-word AVX2 strips and
  // leave a scalar remainder inside a tile; 4133 (64 words + 37 bits)
  // runs the 32-word strips of pass-only rows.
  for (const std::uint64_t np : {1ull, 63ull, 64ull, 65ull, 127ull, 128ull,
                                 129ull, 513ull, 1031ull, 4133ull}) {
    PatternBatch in(num_in_lanes, np);
    randomize(in, rng);

    // A random plane: some rows empty, some NOR, some raw-OR, lanes and
    // polarities drawn at random.
    std::vector<lanes::SweepTerm> terms;
    std::vector<lanes::SweepRow> rows(num_rows);
    for (int r = 0; r < num_rows; ++r) {
      const std::uint64_t first = terms.size();
      const int nt = static_cast<int>(rng.next_u64() % 7);  // 0..6 terms
      for (int t = 0; t < nt; ++t) {
        terms.push_back(
            {.lane = static_cast<std::int32_t>(rng.next_u64() %
                                               num_in_lanes),
             .invert = rng.next_bool()});
      }
      rows[static_cast<std::size_t>(r)] = {
          .first_term = first,
          .num_terms = terms.size() - first,
          .complement = rng.next_bool()};
    }

    PatternBatch reference(num_rows, np);
    cpu::force_tier(cpu::SimdTier::kScalar);
    lanes::nor_plane_sweep(rows.data(), num_rows, terms.data(), in,
                           reference);
    for (const cpu::SimdTier tier : available_tiers()) {
      cpu::force_tier(tier);
      PatternBatch out(num_rows, np);
      lanes::nor_plane_sweep(rows.data(), num_rows, terms.data(), in, out);
      ASSERT_EQ(out, reference)
          << cpu::tier_name(tier) << " sweep differs at np=" << np;
      out.assert_tail_clean("PlaneSweepBitIdenticalAcrossTiers");
    }
  }
}

TEST(LaneKernelsTest, PlaneSweepWordRangesAddressLanesInPlace) {
  // The stride/range contract: sweeping a batch as a sequence of word
  // ranges — each read in place from the input lanes and written either
  // in place into the output lanes or through a packed tile buffer with
  // its own stride — must reproduce the one-call full sweep bit for
  // bit, on every tier, with the tail mask applied only where a range
  // ends the batch.
  Rng rng(95);
  const int num_in_lanes = 4;
  const std::uint64_t num_rows = 9;
  std::vector<lanes::SweepTerm> terms;
  std::vector<lanes::SweepRow> rows(num_rows);
  for (std::uint64_t r = 0; r < num_rows; ++r) {
    const std::uint64_t first = terms.size();
    const int nt = static_cast<int>(rng.next_u64() % 5);
    for (int t = 0; t < nt; ++t) {
      terms.push_back(
          {.lane = static_cast<std::int32_t>(rng.next_u64() % num_in_lanes),
           .invert = rng.next_bool()});
    }
    rows[r] = {.first_term = first,
               .num_terms = terms.size() - first,
               .complement = rng.next_bool()};
  }
  for (const std::uint64_t np : {1ull, 100ull, 640ull, 1500ull}) {
    PatternBatch in(num_in_lanes, np);
    randomize(in, rng);
    const std::uint64_t words = in.words_per_lane();
    PatternBatch reference(static_cast<int>(num_rows), np);
    lanes::kernels_for(cpu::SimdTier::kScalar)
        .plane_sweep(rows.data(), num_rows, terms.data(), in.lane(0), words,
                     num_in_lanes, reference.lane(0), words, words,
                     in.tail_mask());
    for (const cpu::SimdTier tier : available_tiers()) {
      const lanes::LaneKernels& table = lanes::kernels_for(tier);
      for (const std::uint64_t range : {1ull, 3ull, 8ull, 13ull}) {
        PatternBatch direct(static_cast<int>(num_rows), np);
        PatternBatch via_tile(static_cast<int>(num_rows), np);
        std::vector<std::uint64_t> tile(num_rows * range);
        for (std::uint64_t w = 0; w < words; w += range) {
          const std::uint64_t n = std::min(range, words - w);
          const std::uint64_t mask =
              w + n == words ? in.tail_mask() : ~std::uint64_t{0};
          table.plane_sweep(rows.data(), num_rows, terms.data(),
                            in.lane(0) + w, words, num_in_lanes,
                            direct.lane(0) + w, words, n, mask);
          table.plane_sweep(rows.data(), num_rows, terms.data(),
                            in.lane(0) + w, words, num_in_lanes, tile.data(),
                            range, n, mask);
          for (std::uint64_t r = 0; r < num_rows; ++r) {
            std::copy_n(tile.data() + r * range, n,
                        via_tile.lane(static_cast<int>(r)) + w);
          }
        }
        EXPECT_EQ(direct, reference)
            << table.name << " np=" << np << " range=" << range;
        EXPECT_EQ(via_tile, reference)
            << table.name << " np=" << np << " range=" << range << " (tile)";
      }
    }
  }
}

TEST(LaneKernelsTest, TileWordsStaysWithinTheSweep) {
  // A sweep shorter than one strip (every EVAL of <= 448 patterns) gets
  // one tile of exactly its length; longer sweeps get whole strips.
  EXPECT_EQ(lanes::tile_words(16, 1), 1u);
  EXPECT_EQ(lanes::tile_words(16, 7), 7u);
  EXPECT_EQ(lanes::tile_words(100000, 5), 5u);
  EXPECT_EQ(lanes::tile_words(100000, 1000), 8u);
  EXPECT_EQ(lanes::tile_words(0, 13), 13u);
  EXPECT_EQ(lanes::tile_words(0, 0), 0u);
  const std::uint64_t t = lanes::tile_words(223, 16384);
  EXPECT_EQ(t % 8, 0u);
  EXPECT_LE(t * 223 * 8, lanes::kTileBudgetBytes);
}

TEST(LaneKernelsTest, PlaneSweepConstantRowsAndFullWordTail) {
  TierGuard guard;
  // Exactly 128 patterns: tail_mask is ALL ONES, so a zero-term NOR row
  // must come out all ones in BOTH words — a kernel that confuses "no
  // tail" with "empty tail" zeroes the final word instead.
  const std::uint64_t np = 128;
  PatternBatch in(1, np);
  Rng rng(94);
  randomize(in, rng);
  const std::vector<lanes::SweepRow> rows = {
      {.first_term = 0, .num_terms = 0, .complement = true},   // constant 1
      {.first_term = 0, .num_terms = 0, .complement = false},  // constant 0
  };
  for (const cpu::SimdTier tier : available_tiers()) {
    cpu::force_tier(tier);
    PatternBatch out(2, np);
    lanes::nor_plane_sweep(rows.data(), 2, nullptr, in, out);
    EXPECT_EQ(out.tail_mask(), ~std::uint64_t{0});
    for (std::uint64_t w = 0; w < out.words_per_lane(); ++w) {
      EXPECT_EQ(out.lane(0)[w], ~std::uint64_t{0})
          << cpu::tier_name(tier) << " word " << w;
      EXPECT_EQ(out.lane(1)[w], 0u) << cpu::tier_name(tier) << " word " << w;
    }
  }
}

TEST(LaneKernelsTest, PlaneSweepHandlesEmptyShapes) {
  TierGuard guard;
  for (const cpu::SimdTier tier : available_tiers()) {
    cpu::force_tier(tier);
    // 0 patterns: nothing to write, but shapes still line up.
    {
      PatternBatch in(3, 0);
      PatternBatch out(2, 0);
      const std::vector<lanes::SweepRow> rows = {
          {.first_term = 0, .num_terms = 0, .complement = true},
          {.first_term = 0, .num_terms = 0, .complement = false}};
      EXPECT_NO_THROW(
          lanes::nor_plane_sweep(rows.data(), 2, nullptr, in, out));
      EXPECT_EQ(out.num_patterns(), 0u);
    }
    // 0 rows: the output batch has no lanes to write.
    {
      PatternBatch in(3, 70);
      PatternBatch out(0, 70);
      EXPECT_NO_THROW(lanes::nor_plane_sweep(nullptr, 0, nullptr, in, out));
    }
    // 0 input lanes: only constant rows are possible, and they must
    // still respect the tail mask.
    {
      PatternBatch in(0, 70);
      PatternBatch out(1, 70);
      const std::vector<lanes::SweepRow> rows = {
          {.first_term = 0, .num_terms = 0, .complement = true}};
      lanes::nor_plane_sweep(rows.data(), 1, nullptr, in, out);
      EXPECT_EQ(out.lane(0)[0], ~std::uint64_t{0});
      EXPECT_EQ(out.lane(0)[1], out.tail_mask());
    }
  }
}

// ---------------------------------------------------------------------------
// PatternBatch plumbing the kernels depend on.
// ---------------------------------------------------------------------------

TEST(LaneKernelsTest, PatternBatchStoreIsLaneAligned) {
  // The alignment contract: the BASE of the packed store is
  // kLaneAlignment-byte aligned (lane 0), whatever the geometry. Lane
  // pointers beyond lane 0 carry no such guarantee — kernels use
  // unaligned loads — but the base alignment is what makes the aligned
  // allocator observable, so pin it.
  for (const std::uint64_t np : {1ull, 64ull, 65ull, 129ull}) {
    PatternBatch batch(3, np);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(batch.lane(0)) %
                  lanes::kLaneAlignment,
              0u)
        << "np=" << np;
  }
}

TEST(LaneKernelsTest, ComplementLaneFullWordTailAcrossTiers) {
  TierGuard guard;
  // 64 patterns: tail_mask all ones; complementing a zero lane must set
  // every bit including bit 63 (a masked complement that rebuilds the
  // mask from num_patterns % 64 would clear the whole word).
  for (const cpu::SimdTier tier : available_tiers()) {
    cpu::force_tier(tier);
    PatternBatch batch(1, 64);
    batch.complement_lane(0);
    EXPECT_EQ(batch.lane(0)[0], ~std::uint64_t{0}) << cpu::tier_name(tier);
    batch.complement_lane(0);
    EXPECT_EQ(batch.lane(0)[0], 0u) << cpu::tier_name(tier);
  }
}

TEST(LaneKernelsTest, ComplementLaneZeroPatternsIsANoOp) {
  PatternBatch batch(2, 0);
  EXPECT_NO_THROW(batch.complement_lane(1));
  EXPECT_EQ(batch.words_per_lane(), 0u);
}

}  // namespace
}  // namespace ambit
