// Fig. 2 reproduction: the four-input dynamic GNOR gate configured as
// Y = NOR(A, B', D) with input C inhibited (C1=V+, C2=V-, C3=V0,
// C4=V+). Verified two ways: the functional GNOR model and the full
// transistor-level switch simulation with precharge/evaluate phases,
// including the §4 charge-programming step. Exits 1 when the decode
// round trip or the functional == switch-level check fails.
#include <cstdio>

#include "core/fig2.h"
#include "core/gnor_pla.h"
#include "core/programmer.h"
#include "simulate/pla_sim.h"
#include "util/error.h"
#include "util/table.h"

using namespace ambit;
using core::CellConfig;

int main() {
  const tech::CnfetElectrical e = tech::default_cnfet_electrical();
  std::printf("=== Fig. 2: GNOR gate configured as Y = NOR(A, B', D) ===\n\n");

  // The configured gate, as a 1-row GNOR plane.
  core::GnorPlane plane(1, 4);
  plane.set_cell(0, 0, CellConfig::kPass);    // C1 = V+ : A as-is
  plane.set_cell(0, 1, CellConfig::kInvert);  // C2 = V- : B inverted
  plane.set_cell(0, 2, CellConfig::kOff);     // C3 = V0 : C inhibited
  plane.set_cell(0, 3, CellConfig::kPass);    // C4 = V+ : D as-is
  std::printf("configured function: %s\n", plane.row_gate(0).function_string().c_str());

  // Program it through the §4 charge protocol and verify the decode.
  core::PlaneProgrammer prog(1, 4, e);
  const auto pulses = core::PlaneProgrammer::compile(plane, e);
  prog.apply_all(pulses);
  const bool decoded = prog.decode() == plane;
  std::printf("programming pulses: %zu (one per non-off cell)\n", pulses.size());
  std::printf("decode-after-programming matches target: %s\n\n",
              decoded ? "yes" : "NO");

  // Wrap into a 1-product/1-output PLA so the switch-level simulator
  // can clock it — the SHARED Fig. 2 reference construction
  // (core/fig2.h), whose inverting buffer tap restores Y = P = the
  // configured NOR.
  const core::GnorPla pla = core::fig2_reference_pla();
  for (int c = 0; c < 4; ++c) {
    check(pla.product_plane().cell(0, c) == plane.cell(0, c),
          "fig2 reference drifted from the configured gate");
  }
  simulate::GnorPlaSimulator sim(pla, e);

  TextTable table({"A", "B", "C", "D", "Y=NOR(A,B',D)", "switch-level",
                   "eval delay [ps]"});
  bool all_match = true;
  double worst = 0;
  for (int m = 0; m < 16; ++m) {
    const bool a = (m & 1) != 0;
    const bool b = (m & 2) != 0;
    const bool c = (m & 4) != 0;
    const bool d = (m & 8) != 0;
    const bool expected = !(a || !b || d);
    const auto result = sim.run_cycle({a, b, c, d});
    const bool sim_value = result.outputs[0] == simulate::Logic::k1;
    all_match = all_match && (sim_value == expected) &&
                is_definite(result.outputs[0]);
    const double delay_ps = result.plane1_eval_delay_s * 1e12;
    worst = std::max(worst, delay_ps);
    char dbuf[32];
    std::snprintf(dbuf, sizeof(dbuf), "%.1f", delay_ps);
    table.add_row({a ? "1" : "0", b ? "1" : "0", c ? "1" : "0", d ? "1" : "0",
                   expected ? "1" : "0", sim_value ? "1" : "0", dbuf});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("functional == switch-level on all 16 vectors: %s\n",
              all_match ? "yes" : "NO");
  std::printf("worst-case evaluate delay: %.1f ps; C never influences Y\n",
              worst);
  return decoded && all_match ? 0 : 1;
}
