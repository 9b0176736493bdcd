// NEON tier of the lane kernels (logic/lane_kernels.h).
//
// AdvSIMD is architecturally mandatory on AArch64, so unlike the AVX2
// translation unit this one needs no special compile flags — it simply
// compiles to an empty registration everywhere else. Reached only
// through the kernel table (cpu::active_tier() == kNeon). Same
// structure as the AVX2 sweep — register accumulation per strip plus
// cache-blocked word tiling — at 128-bit width (4-word strips, two
// uint64x2 accumulators).
#include "logic/lane_kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>

namespace ambit::logic::lanes {

namespace {

void neon_or_into(std::uint64_t* dst, const std::uint64_t* src,
                  std::uint64_t n) {
  std::uint64_t w = 0;
  for (; w + 2 <= n; w += 2) {
    vst1q_u64(dst + w, vorrq_u64(vld1q_u64(dst + w), vld1q_u64(src + w)));
  }
  for (; w < n; ++w) {
    dst[w] |= src[w];
  }
}

void neon_or_not_into(std::uint64_t* dst, const std::uint64_t* src,
                      std::uint64_t n) {
  const uint64x2_t ones = vdupq_n_u64(~std::uint64_t{0});
  std::uint64_t w = 0;
  for (; w + 2 <= n; w += 2) {
    vst1q_u64(dst + w, vorrq_u64(vld1q_u64(dst + w),
                                 veorq_u64(vld1q_u64(src + w), ones)));
  }
  for (; w < n; ++w) {
    dst[w] |= ~src[w];
  }
}

void neon_complement_masked(std::uint64_t* dst, std::uint64_t n,
                            std::uint64_t tail_mask) {
  const uint64x2_t ones = vdupq_n_u64(~std::uint64_t{0});
  std::uint64_t w = 0;
  for (; w + 2 <= n; w += 2) {
    vst1q_u64(dst + w, veorq_u64(vld1q_u64(dst + w), ones));
  }
  for (; w < n; ++w) {
    dst[w] = ~dst[w];
  }
  dst[n - 1] &= tail_mask;
}

void neon_plane_sweep(const SweepRow* rows, std::uint64_t num_rows,
                      const SweepTerm* terms, const std::uint64_t* in,
                      std::uint64_t in_stride, std::uint64_t num_in_lanes,
                      std::uint64_t* out, std::uint64_t out_stride,
                      std::uint64_t num_words, std::uint64_t tail_mask) {
  if (num_words == 0) {
    return;
  }
  // Same L2 tile budget as the AVX2 tier (lanes::tile_words).
  const std::uint64_t tile = tile_words(num_in_lanes, num_words);

  const uint64x2_t ones = vdupq_n_u64(~std::uint64_t{0});
  for (std::uint64_t t0 = 0; t0 < num_words; t0 += tile) {
    const std::uint64_t t1 = std::min(num_words, t0 + tile);
    for (std::uint64_t r = 0; r < num_rows; ++r) {
      std::uint64_t* lane = out + r * out_stride;
      const SweepRow& row = rows[r];
      const SweepTerm* row_terms = terms + row.first_term;
      std::uint64_t w = t0;
      for (; w + 4 <= t1; w += 4) {
        uint64x2_t acc0 = vdupq_n_u64(0);
        uint64x2_t acc1 = vdupq_n_u64(0);
        for (std::uint64_t t = 0; t < row.num_terms; ++t) {
          const std::uint64_t* src =
              in + static_cast<std::uint64_t>(row_terms[t].lane) * in_stride +
              w;
          uint64x2_t v0 = vld1q_u64(src);
          uint64x2_t v1 = vld1q_u64(src + 2);
          if (row_terms[t].invert) {
            v0 = veorq_u64(v0, ones);
            v1 = veorq_u64(v1, ones);
          }
          acc0 = vorrq_u64(acc0, v0);
          acc1 = vorrq_u64(acc1, v1);
        }
        if (row.complement) {
          acc0 = veorq_u64(acc0, ones);
          acc1 = veorq_u64(acc1, ones);
        }
        vst1q_u64(lane + w, acc0);
        vst1q_u64(lane + w + 2, acc1);
      }
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

constexpr LaneKernels kNeonKernels = {
    .name = "neon",
    .or_into = neon_or_into,
    .or_not_into = neon_or_not_into,
    .complement_masked = neon_complement_masked,
    .plane_sweep = neon_plane_sweep,
};

}  // namespace

const LaneKernels* neon_kernels() { return &kNeonKernels; }

}  // namespace ambit::logic::lanes

#else  // !__aarch64__

namespace ambit::logic::lanes {

const LaneKernels* neon_kernels() { return nullptr; }

}  // namespace ambit::logic::lanes

#endif
