// Switch-level batch simulation throughput.
//
// The simulator used to be the last scalar island: one pattern per
// call, and per-pattern isolation meant REBUILDING the transistor
// network per pattern (construction was the only way to guarantee no
// dynamic charge carried over). The batch path keeps ONE built network,
// resets its settle state per pattern, and shards patterns word-aligned
// across the ThreadPool. This bench measures that claim on the paper's
// Fig. 2 reference PLA — the 4-input gate Y = NOR(A, B', D) wrapped as
// a 1-product/1-output dynamic PLA — and on a larger synthetic PLA:
//
//   1. rebuild-per-pattern vs reuse-and-reset (sequential) vs the full
//      shipped path (reuse + sharded sweep). Outputs and per-pattern
//      delays must be BIT-IDENTICAL across all three. The >= 5x
//      acceptance bar applies to the shipped path and — like the
//      >= 3x @ 4 workers bar of bench_serve_throughput — is enforced
//      on machines with >= 4 hardware threads (the design target; a
//      single-core container cannot express the sharded axis). The
//      sequential reuse arm alone must clear 1.5x everywhere.
//   2. sequential vs sharded simulate_batch on an 8-input PLA,
//      bit-identity always, >= 2x at 4+ hardware threads.
//   3. the oracle price: SimEvaluator vs the word-packed functional
//      evaluate_batch (informational — this is the factor the
//      cross-validation suites pay for transistor-level confidence).
#include <chrono>
#include <cstdio>
#include <thread>

#include "core/fig2.h"
#include "core/gnor_pla.h"
#include "espresso/espresso.h"
#include "logic/pattern_batch.h"
#include "logic/synth_bench.h"
#include "simulate/pla_sim.h"
#include "simulate/sim_evaluator.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace ambit;
using logic::Cover;
using logic::PatternBatch;
using simulate::BatchSimResult;
using simulate::GnorPlaSimulator;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// `count` patterns cycling through the full 4-input space.
PatternBatch fig2_patterns(std::uint64_t count) {
  PatternBatch batch(4, count);
  for (std::uint64_t p = 0; p < count; ++p) {
    for (int i = 0; i < 4; ++i) {
      batch.set(p, i, ((p % 16) >> i) & 1);
    }
  }
  return batch;
}

bool same_results(const BatchSimResult& a, const BatchSimResult& b) {
  return a.outputs == b.outputs && a.definite == b.definite &&
         a.precharge_delay_s == b.precharge_delay_s &&
         a.plane1_eval_delay_s == b.plane1_eval_delay_s &&
         a.plane2_eval_delay_s == b.plane2_eval_delay_s;
}

}  // namespace

int main() {
  // A bad AMBIT_THREADS is a usage error (exit 2), read before any work.
  int workers = 1;
  try {
    workers = ThreadPool::default_workers();
  } catch (const Error& e) {
    std::fprintf(stderr, "bench_sim_batch: %s\n", e.what());
    return 2;
  }
  const tech::CnfetElectrical e = tech::default_cnfet_electrical();
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("=== Batch switch-level simulation ===\n\n");
  bool ok = true;

  // --- 1. Rebuild vs reuse vs reuse+sharded (Fig. 2 PLA). ------------------
  const core::GnorPla fig2 = core::fig2_reference_pla();
  constexpr std::uint64_t kFig2Patterns = 8192;
  const PatternBatch fig2_in = fig2_patterns(kFig2Patterns);

  // Rebuild arm: what per-pattern isolation cost before reset() — a
  // fresh simulator (full network construction) for every pattern.
  BatchSimResult rebuilt(fig2.num_outputs(), kFig2Patterns);
  const auto rebuild_start = std::chrono::steady_clock::now();
  for (std::uint64_t p = 0; p < kFig2Patterns; ++p) {
    GnorPlaSimulator fresh(fig2, e);
    const simulate::PlaSimResult r = fresh.run_cycle(fig2_in.pattern(p));
    for (int o = 0; o < fig2.num_outputs(); ++o) {
      rebuilt.outputs.set(p, o,
                          r.outputs[static_cast<std::size_t>(o)] ==
                              simulate::Logic::k1);
      rebuilt.definite.set(p, o,
                           is_definite(r.outputs[static_cast<std::size_t>(o)]));
    }
    rebuilt.precharge_delay_s[p] = r.precharge_delay_s;
    rebuilt.plane1_eval_delay_s[p] = r.plane1_eval_delay_s;
    rebuilt.plane2_eval_delay_s[p] = r.plane2_eval_delay_s;
  }
  const double rebuild_secs = seconds_since(rebuild_start);

  // Reuse arm, sequential: one built network, reset per pattern.
  GnorPlaSimulator sim(fig2, e);
  BatchSimResult reused = sim.simulate_batch(fig2_in);
  int reps = 1;
  const auto reuse_start = std::chrono::steady_clock::now();
  double reuse_secs = 0;
  do {
    reused = sim.simulate_batch(fig2_in);
    ++reps;
    reuse_secs = seconds_since(reuse_start);
  } while (reuse_secs < 0.2);
  reuse_secs /= (reps - 1);

  // Shipped arm: reuse + word-aligned sharding across the pool.
  ThreadPool pool(workers);
  BatchSimResult sharded = sim.simulate_batch(fig2_in, &pool);
  reps = 1;
  const auto sharded_start = std::chrono::steady_clock::now();
  double sharded_secs = 0;
  do {
    sharded = sim.simulate_batch(fig2_in, &pool);
    ++reps;
    sharded_secs = seconds_since(sharded_start);
  } while (sharded_secs < 0.2);
  sharded_secs /= (reps - 1);

  const bool identical =
      same_results(reused, rebuilt) && same_results(sharded, rebuilt);
  const double rebuild_pps = static_cast<double>(kFig2Patterns) / rebuild_secs;
  const double reuse_pps = static_cast<double>(kFig2Patterns) / reuse_secs;
  const double sharded_pps = static_cast<double>(kFig2Patterns) / sharded_secs;
  const double reuse_speedup = reuse_pps / rebuild_pps;
  const double shipped_speedup = sharded_pps / rebuild_pps;
  ok = ok && identical;

  TextTable reuse_table({"strategy", "patterns/s", "speedup"});
  reuse_table.add_row({"rebuild per pattern", format_double(rebuild_pps, 0),
                       "1.0x"});
  reuse_table.add_row({"reuse + reset (sequential)",
                       format_double(reuse_pps, 0),
                       format_double(reuse_speedup, 1) + "x"});
  reuse_table.add_row({"reuse + reset, sharded x" + std::to_string(workers),
                       format_double(sharded_pps, 0),
                       format_double(shipped_speedup, 1) + "x"});
  std::printf("Fig. 2 reference PLA, %llu patterns:\n%s\n",
              static_cast<unsigned long long>(kFig2Patterns),
              reuse_table.render().c_str());
  std::printf("outputs + per-pattern delays bit-identical across all "
              "strategies: %s\n",
              identical ? "yes" : "NO");
  std::printf("network-reuse speedup: %.1fx sequential, %.1fx shipped "
              "(acceptance bar: >= 5x shipped, enforced at >= 4 hardware "
              "threads; this machine: %u)\n",
              reuse_speedup, shipped_speedup, hw_threads);
  std::printf("worst-case clock period: %.2f ps "
              "(pre %.2f + plane1 %.2f + plane2 %.2f), critical pattern "
              "%llu\n\n",
              reused.worst_cycle_s() * 1e12,
              reused.worst_precharge_s() * 1e12,
              reused.worst_plane1_eval_s() * 1e12,
              reused.worst_plane2_eval_s() * 1e12,
              static_cast<unsigned long long>(reused.critical_pattern()));

  if (reuse_speedup < 1.5) {
    std::printf("FAIL: sequential reuse speedup %.1fx below the 1.5x sanity "
                "bar\n",
                reuse_speedup);
    ok = false;
  }
  const bool enforce_shipped = hw_threads >= 4 && workers >= 4;
  if (enforce_shipped && shipped_speedup < 5.0) {
    std::printf("FAIL: shipped speedup %.1fx below the 5x bar on a %u-thread "
                "machine\n",
                shipped_speedup, hw_threads);
    ok = false;
  }

  // --- 2. Sequential vs sharded sweep (synthetic 8-input PLA). -------------
  const logic::SynthSpec spec{.num_inputs = 8,
                              .num_outputs = 3,
                              .num_cubes = 24,
                              .literals_per_cube = 4};
  const Cover cover = espresso::minimize(logic::generate_cover(spec, 7)).cover;
  const core::GnorPla big = core::GnorPla::map_cover(cover);
  GnorPlaSimulator big_sim(big, e);
  constexpr std::uint64_t kShardPatterns = 8192;
  PatternBatch shard_in(8, kShardPatterns);
  for (std::uint64_t p = 0; p < kShardPatterns; ++p) {
    for (int i = 0; i < 8; ++i) {
      shard_in.set(p, i, ((p * 2654435761u) >> i) & 1);
    }
  }

  // Same repeat-until-stable discipline as the Fig. 2 arms: this
  // ratio gates CI, so a single-sample scheduling hiccup must not be
  // able to fail the job.
  BatchSimResult seq = big_sim.simulate_batch(shard_in);
  int seq_reps = 1;
  const auto seq_start = std::chrono::steady_clock::now();
  double seq_secs = 0;
  do {
    seq = big_sim.simulate_batch(shard_in);
    ++seq_reps;
    seq_secs = seconds_since(seq_start);
  } while (seq_secs < 0.2);
  seq_secs /= (seq_reps - 1);

  BatchSimResult par = big_sim.simulate_batch(shard_in, &pool);
  int par_reps = 1;
  const auto par_start = std::chrono::steady_clock::now();
  double par_secs = 0;
  do {
    par = big_sim.simulate_batch(shard_in, &pool);
    ++par_reps;
    par_secs = seconds_since(par_start);
  } while (par_secs < 0.2);
  par_secs /= (par_reps - 1);

  const bool shard_identical = same_results(par, seq);
  const double shard_speedup = seq_secs / par_secs;
  ok = ok && shard_identical;

  std::printf("sharded sweep, %d x %d x %d PLA, %llu patterns, %d worker(s):\n",
              big.num_inputs(), big.num_products(), big.num_outputs(),
              static_cast<unsigned long long>(kShardPatterns), workers);
  std::printf("  sequential %.0f patterns/s, sharded %.0f patterns/s "
              "(%.1fx)\n",
              static_cast<double>(kShardPatterns) / seq_secs,
              static_cast<double>(kShardPatterns) / par_secs, shard_speedup);
  std::printf("  sharded == sequential, words and delays: %s\n\n",
              shard_identical ? "yes" : "NO");
  if (enforce_shipped && shard_speedup < 2.0) {
    std::printf("FAIL: sharded speedup %.1fx below the 2x bar on a %u-thread "
                "machine\n",
                shard_speedup, hw_threads);
    ok = false;
  }

  // --- 3. The oracle price: simulator vs functional batch path. ------------
  const simulate::SimEvaluator oracle(big, e);
  const PatternBatch functional = big.evaluate_batch(shard_in);
  const auto oracle_start = std::chrono::steady_clock::now();
  const PatternBatch simulated = oracle.evaluate_batch(shard_in, pool);
  const double oracle_secs = seconds_since(oracle_start);
  const auto func_start = std::chrono::steady_clock::now();
  PatternBatch func_again(big.num_outputs(), kShardPatterns);
  int func_reps = 0;
  double func_secs = 0;
  do {
    func_again = big.evaluate_batch(shard_in);
    ++func_reps;
    func_secs = seconds_since(func_start);
  } while (func_secs < 0.05);
  func_secs /= func_reps;
  const bool oracle_identical = simulated == functional;
  ok = ok && oracle_identical;
  std::printf("oracle cross-check: switch-level == functional on %llu "
              "patterns: %s (simulator %.0f patterns/s vs functional %.0f "
              "patterns/s, %.0fx price)\n",
              static_cast<unsigned long long>(kShardPatterns),
              oracle_identical ? "yes" : "NO",
              static_cast<double>(kShardPatterns) / oracle_secs,
              static_cast<double>(kShardPatterns) / func_secs,
              oracle_secs / func_secs);

  std::printf("\n%s\n", ok ? "PASS: batch simulation bars met"
                           : "FAIL: batch simulation bars NOT met");
  return ok ? 0 : 1;
}
