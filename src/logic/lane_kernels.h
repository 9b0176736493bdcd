// SIMD lane kernels with one-time runtime dispatch.
//
// Every hot batch-evaluation loop in the repo bottoms out in the same
// three word-wide operations over PatternBatch lanes — OR a lane in,
// OR a complemented lane in, complement-and-mask a lane — plus one
// composite: the NOR-plane sweep (rows of pull-down terms over shared
// input lanes, the paper's two-plane PLA reduced to bit operations).
// This header centralizes them behind a kernel table selected at
// runtime from cpu::active_tier() (util/cpu_features.h):
//
//   tier      width    where it comes from
//   -------   ------   ------------------------------------------
//   avx2      256-bit  lane_kernels_avx2.cpp (x86-64, cpuid-gated)
//   neon      128-bit  lane_kernels_neon.cpp (aarch64 baseline)
//   scalar    64-bit   lane_kernels.cpp (portable, always built;
//                      the PR-1 u64 loops, kept as the reference)
//
// EXACTNESS: every tier is pure AND/OR/NOT over the same word layout,
// so all tiers are BIT-IDENTICAL on every input — the batch≡scalar
// property suites run under each tier (tests/lane_kernels_test.cpp,
// CI's forced-scalar leg) and the Evaluator bit-locality contract
// (core/evaluator.h) holds regardless of dispatch.
//
// ALIGNMENT CONTRACT: lane pointers are NOT guaranteed vector-aligned.
// PatternBatch aligns its backing store to kLaneAlignment bytes, but a
// lane at `base + signal * words_per_lane` lands on a 32-byte boundary
// only when words_per_lane happens to be a multiple of 4 — so every
// SIMD kernel MUST use unaligned loads/stores (loadu/storeu); aligned
// ones would fault on odd geometries. (On every AVX2-era core an
// unaligned load on an aligned address costs the same as an aligned
// load, so this contract costs nothing where it doesn't matter.)
//
// The plane sweep is cache-blocked: words are processed in tiles sized
// so one tile of every input lane stays resident across all rows of
// the plane (large covers — hundreds of products over the same input
// lanes — are memory-bound without this; see docs/BENCHMARKS.md).
//
// STRIDE/RANGE CONTRACT: plane_sweep addresses the caller's lanes in
// place. It sweeps `num_words` words per lane, reading input lane l at
// `in + l * in_stride` and writing output row r at `out + r *
// out_stride`, so a caller selects a word range of a PatternBatch (a
// shard) by offsetting the base pointers, and points either side at a
// packed tile buffer by passing that buffer's own stride. The tail mask
// applies to the last word of the range, so a range that ends before
// the batch does passes all ones. By bit-locality (core/evaluator.h)
// sweeping any partition of the words this way is bit-identical to one
// full-lane sweep.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "util/cpu_features.h"

namespace ambit::logic {

class PatternBatch;

namespace lanes {

/// PatternBatch backing-store alignment in bytes (one AVX-512 line /
/// one cache line). Base pointers are aligned to this; individual lane
/// pointers are NOT — see the alignment contract above.
inline constexpr std::size_t kLaneAlignment = 64;

/// One pull-down term of a plane row: which input lane conducts, and
/// with which polarity (invert = p-type cell / complement rail: the
/// term contributes ~lane instead of lane).
struct SweepTerm {
  std::int32_t lane = 0;
  bool invert = false;
};

/// One output row of a plane sweep: a CSR range into the term array
/// plus the final polarity. complement=true is a NOR row (invert the
/// pull-down accumulator — the GNOR/AND/OR planes); complement=false
/// keeps the raw OR (a plane-2 row read through its inverting buffer
/// tap).
struct SweepRow {
  std::uint64_t first_term = 0;
  std::uint64_t num_terms = 0;
  bool complement = true;
};

/// The per-tier kernel table. All function pointers are non-null.
/// Raw-pointer signatures keep the SIMD translation units free of any
/// repo dependency; PatternBatch callers use the wrappers below.
struct LaneKernels {
  const char* name;

  /// dst[w] |= src[w] for w in [0, n).
  void (*or_into)(std::uint64_t* dst, const std::uint64_t* src,
                  std::uint64_t n);

  /// dst[w] |= ~src[w] for w in [0, n).
  void (*or_not_into)(std::uint64_t* dst, const std::uint64_t* src,
                      std::uint64_t n);

  /// dst[w] = ~dst[w] for w in [0, n), then dst[n-1] &= tail_mask.
  /// n must be > 0.
  void (*complement_masked)(std::uint64_t* dst, std::uint64_t n,
                            std::uint64_t tail_mask);

  /// The tiled plane sweep over `num_words` words of every lane (see the
  /// stride/range contract above). Input lane l is the words
  /// [l*in_stride, l*in_stride + num_words) of `in`; output row r the
  /// words [r*out_stride, r*out_stride + num_words) of `out`. Every
  /// output word is overwritten: row r = OR of its terms (complemented
  /// per term), then NOR'd when rows[r].complement, and the row's last
  /// word is ANDed with tail_mask. A row with zero terms is constant 1
  /// (NOR) or 0 (OR). `num_in_lanes` only sizes the cache tiles. Input
  /// and output words must not overlap.
  void (*plane_sweep)(const SweepRow* rows, std::uint64_t num_rows,
                      const SweepTerm* terms, const std::uint64_t* in,
                      std::uint64_t in_stride, std::uint64_t num_in_lanes,
                      std::uint64_t* out, std::uint64_t out_stride,
                      std::uint64_t num_words, std::uint64_t tail_mask);
};

/// Bytes one cache tile of every resident lane may take: half a typical
/// 512 KiB L2, so output-row stores and the term arrays fit alongside.
inline constexpr std::uint64_t kTileBudgetBytes = 256 * 1024;

/// Words per cache tile when `resident_lanes` lanes must stay in L2
/// across a sweep of `num_words` words: the lanes' share of the budget,
/// rounded down to a whole 8-word strip (a multiple of every SIMD
/// tier's strip) but at least one strip, and never more than the
/// `num_words` the sweep has — which may be fewer than a strip.
inline constexpr std::uint64_t tile_words(std::uint64_t resident_lanes,
                                          std::uint64_t num_words) {
  const std::uint64_t share =
      kTileBudgetBytes / 8 / std::max<std::uint64_t>(resident_lanes, 1);
  return std::min(std::max<std::uint64_t>(share - share % 8, 8), num_words);
}

/// The kernel table for cpu::active_tier() — one atomic load per call,
/// so per-sweep dispatch cost is negligible and AMBIT_FORCE_SCALAR /
/// cpu::force_tier() take effect on the next sweep.
const LaneKernels& kernels();

/// The kernel table for a specific tier, clamped to what this binary
/// and CPU can run (asking for an unavailable tier returns the scalar
/// table). Test/bench hook for comparing tiers in one process.
const LaneKernels& kernels_for(cpu::SimdTier tier);

/// PatternBatch-level wrapper over plane_sweep: evaluates `num_rows`
/// rows of terms over `in`'s lanes into `out`'s lanes (shapes checked
/// under AMBIT_CHECK). `out` must hold exactly `num_rows` signals over
/// `in.num_patterns()` patterns. Handles the 0-pattern and 0-row edge
/// cases by doing nothing.
void nor_plane_sweep(const SweepRow* rows, std::uint64_t num_rows,
                     const SweepTerm* terms, const PatternBatch& in,
                     PatternBatch& out);

// Registration hooks for the ISA-specific translation units: each
// returns its kernel table, or nullptr when that ISA is not compiled
// into this binary (wrong architecture / unsupported compiler). Used
// only by kernels_for(); callers never touch these.
const LaneKernels* avx2_kernels();
const LaneKernels* neon_kernels();
const LaneKernels& scalar_kernels();

}  // namespace lanes
}  // namespace ambit::logic
