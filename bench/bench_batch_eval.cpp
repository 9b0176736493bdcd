// Scalar vs bit-parallel batch evaluation throughput.
//
// The Evaluator redesign claims exhaustive sweeps get an order of
// magnitude faster when the GNOR inner loop runs word-wide over packed
// PatternBatch lanes instead of branching per bit. This bench measures
// it instead of asserting it: for synthetic benchmark covers of
// increasing width (logic/synth_bench.h), sweep the full input space
// through both paths, check the outputs are BIT-IDENTICAL, and report
// patterns/sec. The acceptance bar is >= 10x on the 16-input cover.
//
// A second section compares the dispatched SIMD lane kernels
// (logic/lane_kernels.h — AVX2 or NEON) against the portable u64 tier
// on a classifier-scale cover, forcing each tier in turn through
// cpu::force_tier() in alternating windows. Bar: >= 2x in the median
// window on SIMD-capable hosts, bit-identical in every window always.
// On a scalar-only host the bar self-skips with a printed
// reason; `--smoke` runs everything once with no timing bars (CI
// sanitizer legs use this — elapsed times there can round to zero,
// which is why every patterns/sec division below clamps its
// denominator).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/classical_pla.h"
#include "core/gnor_pla.h"
#include "core/wpla.h"
#include "espresso/espresso.h"
#include "logic/pattern_batch.h"
#include "logic/synth_bench.h"
#include "util/cpu_features.h"
#include "util/strings.h"
#include "util/table.h"

using namespace ambit;
using logic::Cover;
using logic::PatternBatch;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// patterns/sec that never divides by zero: a sub-resolution elapsed
/// time (possible under --smoke with one rep) reports through a 1ns
/// floor instead of inf/nan.
double per_second(double patterns, double secs) {
  return patterns / std::max(secs, 1e-9);
}

struct Throughput {
  double scalar_pps = 0;  ///< patterns/sec, scalar path
  double batch_pps = 0;   ///< patterns/sec, batch path
  bool identical = false;
};

/// Sweeps the full input space of `e` through both paths and compares
/// the outputs word for word.
Throughput sweep(const Evaluator& e, bool smoke) {
  const int ni = e.num_inputs();
  const std::uint64_t patterns = std::uint64_t{1} << ni;
  const PatternBatch inputs = PatternBatch::exhaustive(ni);

  // Scalar path: one evaluate() per minterm, packed into lanes so the
  // comparison against the batch result is exact.
  PatternBatch scalar_out(e.num_outputs(), patterns);
  const auto scalar_start = std::chrono::steady_clock::now();
  std::vector<bool> in(static_cast<std::size_t>(ni));
  for (std::uint64_t m = 0; m < patterns; ++m) {
    for (int i = 0; i < ni; ++i) {
      in[static_cast<std::size_t>(i)] = ((m >> i) & 1) != 0;
    }
    const std::vector<bool> out = e.evaluate(in);
    for (int j = 0; j < e.num_outputs(); ++j) {
      scalar_out.set(m, j, out[static_cast<std::size_t>(j)]);
    }
  }
  const double scalar_secs = seconds_since(scalar_start);

  // Batch path: repeat until the measurement is long enough to trust
  // (one rep under --smoke, where nothing is enforced anyway).
  PatternBatch batch_out(e.num_outputs(), patterns);
  const double min_secs = smoke ? 0.0 : 0.05;
  int reps = 0;
  const auto batch_start = std::chrono::steady_clock::now();
  double batch_secs = 0;
  do {
    batch_out = e.evaluate_batch(inputs);
    ++reps;
    batch_secs = seconds_since(batch_start);
  } while (batch_secs < min_secs);

  Throughput t;
  t.scalar_pps = per_second(static_cast<double>(patterns), scalar_secs);
  t.batch_pps = per_second(static_cast<double>(patterns) * reps, batch_secs);
  t.identical = scalar_out == batch_out;
  return t;
}

/// A reproducible random batch: splitmix64 words, tail re-masked so the
/// padding invariant holds.
PatternBatch random_batch(int num_signals, std::uint64_t num_patterns,
                          std::uint64_t seed) {
  PatternBatch batch(num_signals, num_patterns);
  std::uint64_t state = seed;
  const auto next = [&state]() {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  const std::uint64_t wpl = batch.words_per_lane();
  for (int s = 0; s < num_signals; ++s) {
    std::uint64_t* lane = batch.lane(s);
    for (std::uint64_t w = 0; w < wpl; ++w) {
      lane[w] = next();
    }
    if (wpl > 0) {
      lane[wpl - 1] &= batch.tail_mask();
    }
  }
  batch.assert_tail_clean("bench random_batch");
  return batch;
}

/// Times evaluate_batch(in) on the lane-kernel `tier` for one window,
/// repeating until the measurement is trustworthy, and leaves the last
/// result in *out. Returns Mpatterns/sec.
double time_batch_mpps(const Evaluator& e, cpu::SimdTier tier,
                       const PatternBatch& in, PatternBatch* out, bool smoke) {
  cpu::force_tier(tier);
  const double min_secs = smoke ? 0.0 : 0.2;
  int reps = 0;
  const auto start = std::chrono::steady_clock::now();
  double secs = 0;
  do {
    *out = e.evaluate_batch(in);
    ++reps;
    secs = seconds_since(start);
  } while (secs < min_secs);
  return per_second(static_cast<double>(in.num_patterns()) * reps, secs) / 1e6;
}

/// The median of `v`, the upper one of an even count.
double median(std::vector<double> v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  bool instrumented = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  instrumented = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  instrumented = true;
#endif
#endif

  std::printf("=== Scalar vs bit-parallel batch evaluation ===\n\n");
  TextTable table({"circuit", "i x p x o", "scalar [Mpat/s]",
                   "batch [Mpat/s]", "speedup", "bit-identical"});

  bool all_identical = true;
  double speedup_16 = 0;
  for (const int ni : {8, 12, 16}) {
    const logic::SynthSpec spec{.num_inputs = ni,
                                .num_outputs = 4,
                                .num_cubes = 3 * ni,
                                .literals_per_cube = ni / 2};
    const Cover cover =
        espresso::minimize(logic::generate_cover(spec, 42)).cover;
    const auto pla = core::GnorPla::map_cover(cover);
    const Throughput t = sweep(pla, smoke);
    all_identical = all_identical && t.identical;
    const double speedup = t.batch_pps / t.scalar_pps;
    if (ni == 16) {
      speedup_16 = speedup;
    }
    table.add_row({"GnorPla",
                   std::to_string(pla.num_inputs()) + " x " +
                       std::to_string(pla.num_products()) + " x " +
                       std::to_string(pla.num_outputs()),
                   format_double(t.scalar_pps / 1e6, 2),
                   format_double(t.batch_pps / 1e6, 1),
                   format_double(speedup, 1) + "x",
                   t.identical ? "yes" : "NO"});

    if (ni == 12) {
      // The classical baseline and the four-plane WPLA ride the same
      // interface, so the comparison is one call each.
      const auto classical = core::ClassicalPla::map_cover(cover);
      const Throughput tc = sweep(classical, smoke);
      all_identical = all_identical && tc.identical;
      table.add_row({"ClassicalPla",
                     std::to_string(classical.num_inputs()) + " x " +
                         std::to_string(classical.num_products()) + " x " +
                         std::to_string(classical.num_outputs()),
                     format_double(tc.scalar_pps / 1e6, 2),
                     format_double(tc.batch_pps / 1e6, 1),
                     format_double(tc.batch_pps / tc.scalar_pps, 1) + "x",
                     tc.identical ? "yes" : "NO"});

      const auto synth = core::synthesize_wpla(cover);
      const core::Wpla wpla(synth.stage_a, synth.stage_b, ni);
      const Throughput tw = sweep(wpla, smoke);
      all_identical = all_identical && tw.identical;
      table.add_row({"Wpla",
                     std::to_string(wpla.num_inputs()) + " x (" +
                         std::to_string(wpla.num_intermediates()) + ") x " +
                         std::to_string(wpla.num_outputs()),
                     format_double(tw.scalar_pps / 1e6, 2),
                     format_double(tw.batch_pps / 1e6, 1),
                     format_double(tw.batch_pps / tw.scalar_pps, 1) + "x",
                     tw.identical ? "yes" : "NO"});
    }
  }
  std::printf("%s\n", table.render().c_str());

  // ── SIMD tier vs portable u64 tier ──────────────────────────────
  //
  // Classifier-scale cover (the serve bench's synthetic "wide match
  // unit": 16 inputs, 32 outputs, a couple hundred products) over a
  // large random batch, evaluated in-process with the lane kernels
  // pinned to the portable u64 tier and to the widest tier this host
  // detects. Same batch, same plane — the outputs must be bit-identical,
  // and on SIMD hardware the register-accumulating tiled sweep must win
  // by >= 2x. Each arm times the two tiers in seven windows (one under
  // --smoke) that alternate which tier goes first, and the bar reads
  // the median window's ratio, so no single window (a slow moment,
  // drift across the run) decides it.
  std::printf("=== SIMD lane kernels vs portable u64 tier ===\n\n");
  const cpu::SimdTier entry_tier = cpu::active_tier();
  const cpu::SimdTier simd_tier = cpu::detected_tier();
  const bool has_simd = simd_tier != cpu::SimdTier::kScalar;

  const logic::SynthSpec classifier_spec{.num_inputs = 16,
                                         .num_outputs = 32,
                                         .num_cubes = 224,
                                         .literals_per_cube = 6};
  const Cover classifier =
      espresso::minimize(logic::generate_cover(classifier_spec, 7)).cover;
  const std::uint64_t simd_patterns =
      smoke ? (std::uint64_t{1} << 12) : (std::uint64_t{1} << 20);
  const PatternBatch simd_inputs = random_batch(16, simd_patterns, 1234);

  const auto gnor = core::GnorPla::map_cover(classifier);
  const auto classical = core::ClassicalPla::map_cover(classifier);

  const int windows = smoke ? 1 : 7;
  const std::string simd_name = cpu::tier_name(simd_tier);
  TextTable simd_table({"circuit", "window", "u64 [Mpat/s]",
                        simd_name + " [Mpat/s]", "speedup",
                        "bit-identical"});
  bool simd_identical = true;
  double simd_speedup_gnor = 0;
  struct Arm {
    const char* name;
    const Evaluator* e;
  };
  const Arm arms[] = {{"GnorPla", &gnor}, {"ClassicalPla", &classical}};
  const cpu::SimdTier tiers[2] = {cpu::SimdTier::kScalar, simd_tier};
  for (const Arm& arm : arms) {
    PatternBatch outs[2] = {PatternBatch(arm.e->num_outputs(), simd_patterns),
                            PatternBatch(arm.e->num_outputs(), simd_patterns)};
    std::vector<double> rates[2];
    std::vector<double> ratios;
    bool arm_identical = true;
    for (int w = 0; w < windows; ++w) {
      double mpps[2] = {0, 0};
      for (int k = 0; k < 2; ++k) {
        const int t = (w + k) % 2;  // even windows time u64 first
        mpps[t] = time_batch_mpps(*arm.e, tiers[t], simd_inputs, &outs[t],
                                  smoke);
        rates[t].push_back(mpps[t]);
      }
      const bool identical = outs[0] == outs[1];
      arm_identical = arm_identical && identical;
      ratios.push_back(mpps[1] / std::max(mpps[0], 1e-9));
      simd_table.add_row(
          {arm.name,
           std::to_string(w + 1) + (w % 2 == 0 ? " u64 first"
                                              : " " + simd_name + " first"),
           format_double(mpps[0], 1), format_double(mpps[1], 1),
           format_double(ratios.back(), 2) + "x", identical ? "yes" : "NO"});
    }
    simd_identical = simd_identical && arm_identical;
    const double speedup = median(ratios);
    if (arm.e == &gnor) {
      simd_speedup_gnor = speedup;
    }
    simd_table.add_row({arm.name, "median", format_double(median(rates[0]), 1),
                        format_double(median(rates[1]), 1),
                        format_double(speedup, 2) + "x",
                        arm_identical ? "yes" : "NO"});
  }
  cpu::force_tier(entry_tier);
  std::printf("%s\n", simd_table.render().c_str());

  const bool enforce_bars = !smoke && !instrumented;
  const bool enforce_simd = enforce_bars && has_simd;
  std::printf("all sweeps bit-identical scalar vs batch: %s\n",
              all_identical ? "yes" : "NO");
  std::printf("SIMD tier bit-identical to u64 tier: %s\n",
              simd_identical ? "yes" : "NO");
  if (enforce_bars) {
    std::printf("16-input GNOR PLA speedup: %.1fx (bar: >= 10x)\n",
                speedup_16);
  } else {
    std::printf("16-input GNOR PLA speedup: %.1fx (bar NOT enforced: %s)\n",
                speedup_16, smoke ? "smoke run" : "sanitizer build");
  }
  if (enforce_simd) {
    std::printf("%s vs u64 on 16x%dx32 cover, median window of %d: %.2fx "
                "(bar: >= 2x)\n",
                simd_name.c_str(), gnor.num_products(), windows,
                simd_speedup_gnor);
  } else {
    std::printf("%s vs u64 on 16x%dx32 cover, median window of %d: %.2fx "
                "(bar NOT enforced: %s)\n",
                simd_name.c_str(), gnor.num_products(), windows,
                simd_speedup_gnor,
                !has_simd     ? "host has no AVX2/NEON tier"
                : smoke       ? "smoke run"
                              : "sanitizer build");
  }

  bool pass = all_identical && simd_identical;
  if (enforce_bars) {
    pass = pass && speedup_16 >= 10.0;
  }
  if (enforce_simd) {
    pass = pass && simd_speedup_gnor >= 2.0;
  }
  return pass ? 0 : 1;
}
