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

void scalar_or_into(std::uint64_t* dst, const std::uint64_t* src,
                    std::uint64_t n) {
  for (std::uint64_t w = 0; w < n; ++w) {
    dst[w] |= src[w];
  }
}

void scalar_or_not_into(std::uint64_t* dst, const std::uint64_t* src,
                        std::uint64_t n) {
  for (std::uint64_t w = 0; w < n; ++w) {
    dst[w] |= ~src[w];
  }
}

void scalar_complement_masked(std::uint64_t* dst, std::uint64_t n,
                              std::uint64_t tail_mask) {
  for (std::uint64_t w = 0; w < n; ++w) {
    dst[w] = ~dst[w];
  }
  dst[n - 1] &= tail_mask;
}

void scalar_plane_sweep(const SweepRow* rows, std::uint64_t num_rows,
                        const SweepTerm* terms, const std::uint64_t* in,
                        std::uint64_t in_stride, std::uint64_t num_in_lanes,
                        std::uint64_t* out, std::uint64_t out_stride,
                        std::uint64_t num_words, std::uint64_t tail_mask) {
  (void)num_in_lanes;  // the scalar tier does not tile
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
        scalar_or_not_into(lane, src, num_words);
      } else {
        scalar_or_into(lane, src, num_words);
      }
    }
    if (row.complement) {
      scalar_complement_masked(lane, num_words, tail_mask);
    } else {
      // An inverted-term OR row can set padding bits; keep the tail
      // clean here so every row honors the PatternBatch invariant.
      lane[num_words - 1] &= tail_mask;
    }
  }
}

constexpr LaneKernels kScalarKernels = {
    .name = "scalar",
    .or_into = scalar_or_into,
    .or_not_into = scalar_or_not_into,
    .complement_masked = scalar_complement_masked,
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
  // Lanes are stored contiguously signal-major in both batches, so the
  // whole sweep is one kernel call over the raw words.
  const std::uint64_t words = in.words_per_lane();
  const std::uint64_t* in_base = in.num_signals() > 0 ? in.lane(0) : nullptr;
  kernels().plane_sweep(rows, num_rows, terms, in_base, words,
                        static_cast<std::uint64_t>(in.num_signals()),
                        out.lane(0), words, words, in.tail_mask());
  out.assert_tail_clean("nor_plane_sweep (result)");
}

}  // namespace ambit::logic::lanes
