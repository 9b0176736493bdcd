// ambit_cli — the command-line front door to the toolkit.
//
// Usage:
//   ambit_cli <input.pla> [options]
//
// Options:
//   --phase-opt         Sasao output-phase optimization before mapping
//   --wpla              also synthesize a 4-plane Whirlpool PLA
//   --out-pla <path>    write the minimized cover as .pla
//   --out-blif <path>   write the minimized cover as BLIF
//   --verify            exhaustive equivalence check (<= 20 inputs)
//   --sim               switch-level batch timing sweep of the mapped
//                       array (exhaustive <= 12 inputs, else 4096
//                       seeded random patterns): worst-case phase
//                       delays and clock period, cross-checked
//                       bit-for-bit against the functional model
//   --serve             no input file: serve the ambit::serve line
//                       protocol over stdin/stdout (see ambit_serve
//                       for more options and docs/PROTOCOL.md for the
//                       wire grammar)
//   --tcp <host:port>   with --serve: serve over TCP instead of
//                       stdin/stdout, Linux only (port 0 binds an
//                       ephemeral port, announced on stderr once
//                       listening)
//   --log-level <level> debug|info|warn|error|off (default info) for
//                       the structured serve logs (util/log.h)
//   --log-file <path>   append log records to <path> instead of stderr
//
// Prints the minimization summary, the GNOR mapping, and the Table-1
// style area comparison across Flash / EEPROM / CNFET.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include <iostream>

#ifdef _WIN32
#include <fcntl.h>
#include <io.h>
#endif

#include "core/evaluator.h"
#include "core/gnor_pla.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/session.h"
#include "core/wpla.h"
#include "espresso/phase_opt.h"
#include "logic/blif.h"
#include "logic/pattern_batch.h"
#include "logic/pla_io.h"
#include "logic/truth_table.h"
#include "simulate/pla_sim.h"
#include "tech/area_model.h"
#include "tech/delay_model.h"
#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace ambit;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ambit_cli <input.pla> [--phase-opt] [--wpla]\n"
               "                 [--out-pla <path>] [--out-blif <path>]\n"
               "                 [--verify] [--sim]\n"
               "       ambit_cli --serve [--tcp <host:port>] "
               "[--log-level <level>] [--log-file <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  std::string input;
  std::string out_pla;
  std::string out_blif;
  bool phase_opt = false;
  bool wpla = false;
  bool verify = false;
  bool sim = false;
  bool serve_mode = false;
  std::string tcp_spec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--serve") {
      serve_mode = true;
    } else if (arg == "--tcp" && i + 1 < argc) {
      tcp_spec = argv[++i];
    } else if (arg == "--phase-opt") {
      phase_opt = true;
    } else if (arg == "--wpla") {
      wpla = true;
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--sim") {
      sim = true;
    } else if (arg == "--out-pla" && i + 1 < argc) {
      out_pla = argv[++i];
    } else if (arg == "--out-blif" && i + 1 < argc) {
      out_blif = argv[++i];
    } else if (arg == "--log-level" && i + 1 < argc) {
      const std::string value = argv[++i];
      const auto level = logs::parse_level(value);
      if (!level.has_value()) {
        std::fprintf(stderr,
                     "ambit_cli: --log-level needs debug|info|warn|error|off, "
                     "got '%s'\n",
                     value.c_str());
        return 2;
      }
      logs::set_threshold(*level);
    } else if (arg == "--log-file" && i + 1 < argc) {
      const std::string value = argv[++i];
      if (!logs::set_file(value)) {
        std::fprintf(stderr, "ambit_cli: cannot open log file '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (!arg.empty() && arg[0] != '-' && input.empty()) {
      input = arg;
    } else {
      return usage();
    }
  }
  if (serve_mode) {
    // Delegate to the serve subsystem: a long-running session over
    // stdin/stdout (or TCP with --tcp), sharded across the default
    // worker count. ambit_serve has the full option surface
    // (--socket, --max-connections, coalescing, preloads).
    if (!input.empty() || phase_opt || wpla || verify || sim ||
        !out_pla.empty() || !out_blif.empty()) {
      return usage();
    }
    try {
      serve::Session session;
      serve::Server server(session);
      if (!tcp_spec.empty()) {
        const auto [host, port] = serve::parse_host_port(tcp_spec);
        std::fprintf(stderr, "ambit_cli: serving tcp %s:%d; %s\n",
                     host.c_str(), port, serve::help_text().c_str());
        // Kernel-assigned real port announced on stderr while the
        // server runs (matters for port 0), so a driving script can
        // connect.
        std::atomic<int> bound_port{0};
        serve::serve_tcp_announced(
            bound_port,
            [&] { return server.serve_tcp(host, port, &bound_port); },
            [](int bound) {
              std::fprintf(stderr, "ambit_cli: tcp bound port %d\n", bound);
            });
      } else {
#ifdef _WIN32
        // EVALB frames carry raw bytes; text-mode stdio would translate
        // 0x0D 0x0A pairs and corrupt the framing.
        _setmode(_fileno(stdin), _O_BINARY);
        _setmode(_fileno(stdout), _O_BINARY);
#endif
        server.serve_stream(std::cin, std::cout);
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "ambit_cli: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  if (!tcp_spec.empty()) {
    // --tcp only means something with --serve.
    return usage();
  }
  if (input.empty()) {
    return usage();
  }

  try {
    const logic::PlaFile pla = logic::read_pla_file(input);
    std::printf("%s: %d inputs, %d outputs, %zu onset cubes, %zu dc cubes\n",
                pla.name.c_str(), pla.num_inputs(), pla.num_outputs(),
                pla.onset.size(), pla.dcset.size());

    logic::Cover minimized(0, 1);
    std::vector<bool> phases(static_cast<std::size_t>(pla.num_outputs()),
                             false);
    if (phase_opt) {
      const auto result =
          espresso::optimize_output_phases(pla.onset, pla.dcset);
      minimized = result.cover;
      phases = result.complemented;
      int flipped = 0;
      for (const bool f : phases) {
        flipped += f;
      }
      std::printf("espresso + phase opt: %zu -> %zu products (%d output(s) "
                  "complemented)\n",
                  result.baseline_cubes, minimized.size(), flipped);
    } else {
      const auto result = espresso::minimize(pla.onset, pla.dcset);
      minimized = result.cover;
      std::printf("espresso: %zu -> %zu products (%d reduce loop(s))\n",
                  result.stats.initial_cubes, minimized.size(),
                  result.stats.loops);
    }

    if (verify) {
      check(pla.num_inputs() <= 20, "--verify supports at most 20 inputs");
      if (phase_opt) {
        std::printf("verify: phase-opt result checked structurally via "
                    "mapped-PLA equivalence below\n");
      } else {
        // onset \ dcset must survive; result must stay inside onset+dc.
        logic::Cover reference = pla.onset;
        reference.append(pla.dcset);
        check(logic::contained_in(minimized, reference),
              "verification failed: minimized cover exceeds onset+dc");
        std::printf("verify: minimized cover within onset+dc: ok\n");
      }
    }

    const auto gnor = core::GnorPla::map_cover(minimized, phases);
    const auto dim = tech::dimensions_of(minimized);
    std::printf("\nGNOR PLA: %d x %d x %d, %lld programmable cells, "
                "cycle %.2f ns\n",
                gnor.num_inputs(), gnor.num_products(), gnor.num_outputs(),
                gnor.cell_count(),
                tech::gnor_pla_cycle_s(dim, tech::default_cnfet_electrical()) *
                    1e9);
    if (verify) {
      // Exhaustive: mapped PLA (which undoes the phases) vs onset,
      // swept bit-parallel through Evaluator::evaluate_batch.
      const auto table = logic::TruthTable::from_cover(pla.onset);
      const auto dc = logic::TruthTable::from_cover(pla.dcset);
      const auto start = std::chrono::steady_clock::now();
      const auto actual = exhaustive_truth_table(gnor);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const std::uint64_t mismatches = actual.count_mismatches(table, &dc);
      const double patterns = static_cast<double>(table.num_minterms());
      std::printf("verify: swept %.0f patterns in %.3f ms (%.1f Mpatterns/s, "
                  "batch path)\n",
                  patterns, seconds * 1e3,
                  seconds > 0 ? patterns / seconds / 1e6 : 0.0);
      std::printf("verify: mapped GNOR PLA equivalent to the input: %s\n",
                  mismatches == 0 ? "ok" : "FAILED");
      if (mismatches != 0) {
        return 1;
      }
    }

    if (sim) {
      // Switch-level timing sweep of the mapped array: exhaustive for
      // small inputs, a seeded random sample beyond that (the sweep
      // costs three full network settles per pattern).
      logic::PatternBatch patterns(0, 0);
      if (gnor.num_inputs() <= 12) {
        patterns = logic::PatternBatch::exhaustive(gnor.num_inputs());
      } else {
        constexpr std::uint64_t kSample = 4096;
        logic::PatternBatch sample(gnor.num_inputs(), kSample);
        Rng rng(0xA5B17);
        for (int i = 0; i < gnor.num_inputs(); ++i) {
          std::uint64_t* lane = sample.lane(i);
          for (std::uint64_t w = 0; w < sample.words_per_lane(); ++w) {
            lane[w] = rng.next_u64();
          }
          lane[sample.words_per_lane() - 1] &= sample.tail_mask();
        }
        patterns = std::move(sample);
      }
      simulate::GnorPlaSimulator simulator(gnor,
                                           tech::default_cnfet_electrical());
      ThreadPool pool(ThreadPool::default_workers());
      const auto sim_start = std::chrono::steady_clock::now();
      const simulate::BatchSimResult swept =
          simulator.simulate_batch(patterns, &pool);
      const double sim_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        sim_start)
              .count();
      const bool identical =
          swept.all_definite() && swept.outputs == gnor.evaluate_batch(patterns);
      std::printf("\nswitch-level sweep: %llu patterns in %.1f ms "
                  "(%.0f patterns/s)\n",
                  static_cast<unsigned long long>(swept.num_patterns()),
                  sim_seconds * 1e3,
                  sim_seconds > 0
                      ? static_cast<double>(swept.num_patterns()) / sim_seconds
                      : 0.0);
      std::printf("switch-level vs functional outputs: %s\n",
                  identical ? "bit-identical" : "MISMATCH");
      std::printf("worst delays: precharge %.2f ps, plane1 %.2f ps, "
                  "plane2 %.2f ps -> clock period %.2f ps "
                  "(critical pattern %llu, mean cycle %.2f ps)\n",
                  swept.worst_precharge_s() * 1e12,
                  swept.worst_plane1_eval_s() * 1e12,
                  swept.worst_plane2_eval_s() * 1e12,
                  swept.worst_cycle_s() * 1e12,
                  static_cast<unsigned long long>(swept.critical_pattern()),
                  swept.mean_cycle_s() * 1e12);
      std::printf("first-order model cycle (tech/delay_model.h): %.2f ps\n",
                  tech::gnor_pla_cycle_s(dim,
                                         tech::default_cnfet_electrical()) *
                      1e12);
      if (!identical) {
        return 1;
      }
    }

    TextTable area({"technology", "cells", "area [L^2]", "vs CNFET"});
    const double cnfet_area =
        tech::pla_area_l2(tech::cnfet_technology(), dim);
    for (const auto& t : {tech::flash_technology(), tech::eeprom_technology(),
                          tech::cnfet_technology()}) {
      const double a = tech::pla_area_l2(t, dim);
      area.add_row({t.name, std::to_string(tech::cell_count(t, dim)),
                    format_double(a, 0), format_percent(cnfet_area / a - 1.0)});
    }
    std::printf("\n%s", area.render().c_str());

    if (wpla) {
      const auto synth = core::synthesize_wpla(pla.onset);
      std::printf("\nWhirlpool PLA: flat %lld -> wpla %lld cells (%s), "
                  "%zu intermediate(s)\n",
                  synth.flat_cells, synth.wpla_cells,
                  format_percent(static_cast<double>(synth.wpla_cells) /
                                     static_cast<double>(synth.flat_cells) -
                                 1.0)
                      .c_str(),
                  synth.intermediate_outputs.size());
    }
    if (!out_pla.empty()) {
      logic::PlaFile out = logic::make_pla(minimized, pla.name + "_min");
      out.dcset = pla.dcset;
      logic::write_pla_file(out_pla, out);
      std::printf("\nwrote %s\n", out_pla.c_str());
    }
    if (!out_blif.empty()) {
      logic::write_blif_file(out_blif, minimized, pla.name + "_min");
      std::printf("wrote %s\n", out_blif.c_str());
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "ambit_cli: %s\n", e.what());
    return 1;
  }
  return 0;
}
