// Table 2 reproduction: "Frequency of standard FPGA and CNFET FPGA".
//
// Methodology mirrors the paper's emulation: one synthetic circuit
// sized to fill the standard 12x12 PLA-based FPGA to ~99%, implemented
// twice —
//   * standard: dual-rail signals (complements routed), full-size CLBs;
//   * CNFET: GNOR CLBs at half area on the same die (twice the tiles,
//     pitch / sqrt(2)), single-rail signals.
// Channel width is the minimum at which the STANDARD design routes
// (the die is provisioned for the product it ships). Absolute MHz
// depends on our calibrated RC constants; the paper's testbed was an
// unnamed commercial FPGA, so the comparison targets the SHAPE:
// occupancy ratio ~1/2 and frequency ratio ~2x. Exits 1 when either
// design's "routed ok" reads NO.
#include <cstdio>

#include "fpga/flow.h"
#include "util/strings.h"
#include "util/table.h"

using namespace ambit;
using namespace ambit::fpga;

int main() {
  const auto e = tech::default_cnfet_electrical();
  std::printf("=== Table 2: standard FPGA vs ambipolar-CNFET FPGA ===\n\n");

  FpgaArch std_arch = make_standard_arch(12, 12, e);
  // Size the circuit so the standard FPGA is essentially full (the
  // paper: "the standard one is full", 99%).
  CircuitSpec spec;
  spec.num_primary_inputs = 24;
  spec.num_primary_outputs = 12;
  spec.num_levels = 9;
  int blocks = 430;
  Netlist netlist = generate_circuit(spec, 2026);
  for (; blocks >= 300; blocks -= 5) {
    spec.num_logic_blocks = blocks;
    netlist = generate_circuit(spec, 2026);
    const auto packed = pack(netlist, std_arch, PackMode::kDualRail);
    if (packed.num_logic_clusters() <= std_arch.num_tiles() - 1) {
      break;
    }
  }

  // Minimal channel width at which the standard design routes.
  FlowReport std_rep;
  for (int cw = 12; cw <= 48; cw += 2) {
    std_arch.channel_width = cw;
    std_rep = run_flow(netlist, std_arch, {.mode = PackMode::kDualRail});
    if (std_rep.routing.success) {
      break;
    }
  }

  FpgaArch cn_arch = make_cnfet_arch(std_arch, e);
  const FlowReport cn_rep = run_flow(netlist, cn_arch, {.mode = PackMode::kGnor});

  std::printf("circuit: %d logic blocks, depth %d; channel width %d "
              "(minimal for the standard design)\n",
              spec.num_logic_blocks, spec.num_levels, std_arch.channel_width);
  std::printf("standard die: %dx%d full-size CLBs; CNFET die: %dx%d "
              "half-size CLBs (same area)\n\n",
              std_arch.grid_width, std_arch.grid_height, cn_arch.grid_width,
              cn_arch.grid_height);

  TextTable table({"", "Standard FPGA", "CNFET FPGA", "paper (std)",
                   "paper (CNFET)"});
  table.add_row({"occupied area",
                 format_percent(std_rep.occupancy).substr(1),
                 format_percent(cn_rep.occupancy).substr(1), "99%", "44.9%"});
  table.add_row({"frequency",
                 format_double(std_rep.timing.fmax_hz / 1e6, 0) + " MHz",
                 format_double(cn_rep.timing.fmax_hz / 1e6, 0) + " MHz",
                 "154 MHz", "349 MHz"});
  table.add_separator();
  table.add_row({"CLBs used", std::to_string(std_rep.logic_clusters),
                 std::to_string(cn_rep.logic_clusters), "-", "-"});
  table.add_row({"signals routed", std::to_string(std_rep.nets_routed),
                 std::to_string(cn_rep.nets_routed), "-", "-"});
  table.add_row({"routed ok",
                 std_rep.routing.success ? "yes" : "NO",
                 cn_rep.routing.success ? "yes" : "NO", "-", "-"});
  table.add_row({"total wirelength [tiles]",
                 std::to_string(std_rep.routing.total_wirelength),
                 std::to_string(cn_rep.routing.total_wirelength), "-", "-"});
  table.add_row({"critical path",
                 format_double(std_rep.timing.critical_path_s * 1e9, 2) + " ns",
                 format_double(cn_rep.timing.critical_path_s * 1e9, 2) + " ns",
                 "6.49 ns", "2.87 ns"});
  table.add_row({"CLB delay",
                 format_double(std_arch.clb_delay_s * 1e9, 3) + " ns",
                 format_double(cn_arch.clb_delay_s * 1e9, 3) + " ns", "-",
                 "-"});
  std::printf("%s\n", table.render().c_str());

  const double freq_ratio = cn_rep.timing.fmax_hz / std_rep.timing.fmax_hz;
  const double sig_ratio = static_cast<double>(std_rep.nets_routed) /
                           cn_rep.nets_routed;
  std::printf("frequency ratio: %.2fx (paper: 2.27x, headline ~2x)\n",
              freq_ratio);
  std::printf("signals-to-route ratio: %.2fx (paper: \"almost the factor 2\")\n",
              sig_ratio);
  std::printf("occupancy ratio: %.2f (paper: 44.9/99 = 0.45)\n",
              cn_rep.occupancy / std_rep.occupancy);
  return std_rep.routing.success && cn_rep.routing.success ? 0 : 1;
}
