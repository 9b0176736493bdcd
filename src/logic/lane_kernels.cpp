#include "logic/lane_kernels.h"

#include <algorithm>
#include <string>

#include "logic/pattern_batch.h"
#include "util/check.h"

namespace ambit::logic::lanes {

namespace {

// ---- The portable u64 tier ------------------------------------------------
// These are the original PR-1 kernels, verbatim in structure: one
// read-modify-write pass over the full lane per term. They are the
// reference the SIMD tiers must match bit for bit, and the fallback
// every platform can run.

void scalar_plane_sweep(const SweepRow* rows, std::uint64_t num_rows,
                        const SweepTerm* terms, const std::uint64_t* in,
                        std::uint64_t in_stride, std::uint64_t* out,
                        std::uint64_t out_stride, std::uint64_t num_words,
                        std::uint64_t tail_mask) {
  if (num_words == 0) {
    return;
  }
  for (std::uint64_t r = 0; r < num_rows; ++r) {
    std::uint64_t* lane = out + r * out_stride;
    std::fill(lane, lane + num_words, 0);
    const SweepRow& row = rows[r];
    for (std::uint64_t t = 0; t < row.num_terms; ++t) {
      const SweepTerm& term = terms[row.first_term + t];
      const std::uint64_t* src =
          in + static_cast<std::uint64_t>(term.lane) * in_stride;
      if (term.invert) {
        for (std::uint64_t w = 0; w < num_words; ++w) {
          lane[w] |= ~src[w];
        }
      } else {
        for (std::uint64_t w = 0; w < num_words; ++w) {
          lane[w] |= src[w];
        }
      }
    }
    if (row.complement) {
      for (std::uint64_t w = 0; w < num_words; ++w) {
        lane[w] = ~lane[w];
      }
    }
    // A NOR row, or an OR row with an inverted term, sets padding bits;
    // keep the tail clean so every row honors the PatternBatch invariant.
    lane[num_words - 1] &= tail_mask;
  }
}

constexpr LaneKernels kScalarKernels = {
    .name = "scalar",
    .plane_sweep = scalar_plane_sweep,
};

}  // namespace

const LaneKernels& scalar_kernels() { return kScalarKernels; }

const LaneKernels& kernels_for(cpu::SimdTier tier) {
  switch (tier) {
    case cpu::SimdTier::kAvx2:
      if (const LaneKernels* k = avx2_kernels()) {
        return *k;
      }
      break;
    case cpu::SimdTier::kNeon:
      if (const LaneKernels* k = neon_kernels()) {
        return *k;
      }
      break;
    case cpu::SimdTier::kScalar:
      break;
  }
  return kScalarKernels;
}

const LaneKernels& kernels() { return kernels_for(cpu::active_tier()); }

void nor_plane_sweep(const SweepRow* rows, std::uint64_t num_rows,
                     const SweepTerm* terms, const PatternBatch& in,
                     PatternBatch& out) {
  AMBIT_CHECK(out.num_signals() == static_cast<int>(num_rows),
              "nor_plane_sweep: output batch holds " +
                  std::to_string(out.num_signals()) + " lanes, sweep has " +
                  std::to_string(num_rows) + " rows");
  AMBIT_CHECK(out.num_patterns() == in.num_patterns(),
              "nor_plane_sweep: pattern count mismatch");
  if (num_rows == 0 || in.words_per_lane() == 0) {
    return;  // 0-row plane or 0-pattern batch: nothing to write
  }
  // Lanes are stored contiguously signal-major in both batches, so each
  // cache tile is one kernel call over the raw words, and only the last
  // tile ends the lanes.
  const LaneKernels& table = kernels();
  const std::uint64_t words = in.words_per_lane();
  const std::uint64_t tile =
      tile_words(static_cast<std::uint64_t>(in.num_signals()), words);
  for (std::uint64_t w = 0; w < words; w += tile) {
    const std::uint64_t n = std::min(tile, words - w);
    table.plane_sweep(rows, num_rows, terms,
                      in.num_signals() > 0 ? in.lane(0) + w : nullptr, words,
                      out.lane(0) + w, words, n,
                      w + n == words ? in.tail_mask() : ~std::uint64_t{0});
  }
  out.assert_tail_clean("nor_plane_sweep (result)");
}

}  // namespace ambit::logic::lanes
