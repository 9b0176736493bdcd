// AVX2 tier of the lane kernels (logic/lane_kernels.h).
//
// This translation unit — and ONLY this one — is compiled with -mavx2
// (per-file property in CMakeLists.txt), so nothing outside it may call
// these functions directly: they are reached exclusively through the
// kernel table, which kernels_for() hands out only when cpuid reports
// AVX2 (util/cpu_features.h). Everything here uses unaligned
// loads/stores per the lane alignment contract.
//
// The plane sweep differs from the scalar tier in two ways that matter
// beyond vector width:
//   * register accumulation — each 8- to 32-word strip of an output
//     row is reduced across all terms in registers and stored ONCE, versus
//     the scalar tier's read-modify-write pass per term (3 memory ops
//     per word per term);
//   * cache-blocked tiling — words are processed in tiles sized so one
//     tile of every input lane stays resident across all rows, which
//     is what keeps classifier-scale covers (hundreds of products over
//     shared inputs) from going memory-bound.
#include "logic/lane_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace ambit::logic::lanes {

namespace {

void avx2_or_into(std::uint64_t* dst, const std::uint64_t* src,
                  std::uint64_t n) {
  std::uint64_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_or_si256(d, s));
  }
  for (; w < n; ++w) {
    dst[w] |= src[w];
  }
}

void avx2_or_not_into(std::uint64_t* dst, const std::uint64_t* src,
                      std::uint64_t n) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  std::uint64_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_or_si256(d, _mm256_xor_si256(s, ones)));
  }
  for (; w < n; ++w) {
    dst[w] |= ~src[w];
  }
}

void avx2_complement_masked(std::uint64_t* dst, std::uint64_t n,
                            std::uint64_t tail_mask) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  std::uint64_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_xor_si256(d, ones));
  }
  for (; w < n; ++w) {
    dst[w] = ~dst[w];
  }
  dst[n - 1] &= tail_mask;
}

/// One strip of kVectors 4-word vectors of an output row, reduced
/// across every term in registers and stored once. Pass terms OR into
/// `any`; invert terms AND into `all`, because the OR of ~v over them
/// is ~(AND of v) — one vector op per loaded vector, no complement.
/// kPassOnly drops `all` for rows without invert terms (every plane-2
/// row of a mapped PLA), which frees the registers for wider strips.
/// `in` and `lane` point at the strip's first word; `polarity` is all
/// ones for a NOR row and zero for a raw-OR row.
template <int kVectors, bool kPassOnly>
inline void avx2_row_strip(const SweepRow& row, const SweepTerm* terms,
                           const std::uint64_t* in, std::uint64_t in_stride,
                           std::uint64_t* lane, __m256i polarity) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  __m256i any[kVectors];
  __m256i all[kPassOnly ? 1 : kVectors];
  for (int v = 0; v < kVectors; ++v) {
    any[v] = _mm256_setzero_si256();
    if constexpr (!kPassOnly) {
      all[v] = ones;
    }
  }
  for (std::uint64_t t = 0; t < row.num_terms; ++t) {
    const auto* src = reinterpret_cast<const __m256i*>(
        in + static_cast<std::uint64_t>(terms[t].lane) * in_stride);
    if (!kPassOnly && terms[t].invert) {
      for (int v = 0; v < kVectors; ++v) {
        all[v] = _mm256_and_si256(all[v], _mm256_loadu_si256(src + v));
      }
    } else {
      for (int v = 0; v < kVectors; ++v) {
        any[v] = _mm256_or_si256(any[v], _mm256_loadu_si256(src + v));
      }
    }
  }
  for (int v = 0; v < kVectors; ++v) {
    __m256i acc = any[v];
    if constexpr (!kPassOnly) {
      acc = _mm256_or_si256(acc, _mm256_andnot_si256(all[v], ones));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lane) + v,
                        _mm256_xor_si256(acc, polarity));
  }
}

void avx2_plane_sweep(const SweepRow* rows, std::uint64_t num_rows,
                      const SweepTerm* terms, const std::uint64_t* in,
                      std::uint64_t in_stride, std::uint64_t num_in_lanes,
                      std::uint64_t* out, std::uint64_t out_stride,
                      std::uint64_t num_words, std::uint64_t tail_mask) {
  if (num_words == 0) {
    return;
  }
  // Tiles are 8-word multiples, so only the final tile has a scalar
  // remainder.
  const std::uint64_t tile = tile_words(num_in_lanes, num_words);

  const __m256i ones = _mm256_set1_epi64x(-1);
  for (std::uint64_t t0 = 0; t0 < num_words; t0 += tile) {
    const std::uint64_t t1 = std::min(num_words, t0 + tile);
    for (std::uint64_t r = 0; r < num_rows; ++r) {
      std::uint64_t* lane = out + r * out_stride;
      const SweepRow& row = rows[r];
      const SweepTerm* row_terms = terms + row.first_term;
      const __m256i polarity = row.complement ? ones : _mm256_setzero_si256();
      bool pass_only = true;
      for (std::uint64_t t = 0; t < row.num_terms; ++t) {
        pass_only = pass_only && !row_terms[t].invert;
      }
      std::uint64_t w = t0;
      // 32-word strips for pass-only rows, then 16-word strips, then at
      // most one 8-word strip per tile.
      if (pass_only) {
        for (; w + 32 <= t1; w += 32) {
          avx2_row_strip<8, true>(row, row_terms, in + w, in_stride, lane + w,
                                  polarity);
        }
      }
      for (; w + 16 <= t1; w += 16) {
        avx2_row_strip<4, false>(row, row_terms, in + w, in_stride, lane + w,
                                 polarity);
      }
      for (; w + 8 <= t1; w += 8) {
        avx2_row_strip<2, false>(row, row_terms, in + w, in_stride, lane + w,
                                 polarity);
      }
      // Scalar remainder of the tile (at most 7 words, final tile only).
      for (; w < t1; ++w) {
        std::uint64_t acc = 0;
        for (std::uint64_t t = 0; t < row.num_terms; ++t) {
          const std::uint64_t v =
              in[static_cast<std::uint64_t>(row_terms[t].lane) * in_stride +
                 w];
          acc |= row_terms[t].invert ? ~v : v;
        }
        lane[w] = row.complement ? ~acc : acc;
      }
      if (t1 == num_words) {
        lane[num_words - 1] &= tail_mask;
      }
    }
  }
}

constexpr LaneKernels kAvx2Kernels = {
    .name = "avx2",
    .or_into = avx2_or_into,
    .or_not_into = avx2_or_not_into,
    .complement_masked = avx2_complement_masked,
    .plane_sweep = avx2_plane_sweep,
};

}  // namespace

const LaneKernels* avx2_kernels() { return &kAvx2Kernels; }

}  // namespace ambit::logic::lanes

#else  // !__AVX2__

namespace ambit::logic::lanes {

const LaneKernels* avx2_kernels() { return nullptr; }

}  // namespace ambit::logic::lanes

#endif
