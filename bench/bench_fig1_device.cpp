// Fig. 1 reproduction (behavioural): the ambipolar CNFET's three
// states. Sweeps the polarity gate and prints the transfer
// characteristic — n-type conduction at PG = V+, p-type at PG = V−,
// and the "always off" conduction minimum at V0 = VDD/2 — plus the
// discrete state table the architecture relies on. Exits 1 when a
// verdict fails: the PG decode of V+/V−/V0, the state table, or the
// conduction minimum of the sweep sitting anywhere but PG = V0.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/cnfet.h"
#include "tech/technology.h"
#include "util/strings.h"
#include "util/table.h"

using namespace ambit;

int main() {
  const tech::CnfetElectrical e = tech::default_cnfet_electrical();
  std::printf("=== Fig. 1: ambipolar CNFET device behaviour ===\n");
  std::printf("paper: PG=V+ -> n-type, PG=V- -> p-type, PG=V0=VDD/2 -> off\n");
  std::printf("VDD=%.2f V, V+=%.2f V, V-=%.2f V, V0=%.2f V\n\n", e.vdd,
              e.v_polarity_high, e.v_polarity_low, e.v_polarity_off);

  TextTable sweep({"VPG [V]", "I(CG=VDD) [A]", "I(CG=0) [A]", "state"});
  constexpr int kSamples = 12;
  double min_vpg = 0;
  double min_current = INFINITY;
  for (int k = 0; k <= kSamples; ++k) {
    const double vpg = e.vdd * k / kSamples;
    const double i_hi = core::drain_current(e.vdd, vpg, e);
    const double i_lo = core::drain_current(0.0, vpg, e);
    if (std::max(i_hi, i_lo) < min_current) {
      min_current = std::max(i_hi, i_lo);
      min_vpg = vpg;
    }
    char hi[32], lo[32];
    std::snprintf(hi, sizeof(hi), "%.3e", i_hi);
    std::snprintf(lo, sizeof(lo), "%.3e", i_lo);
    sweep.add_row({format_double(vpg, 2), hi, lo,
                   core::to_string(core::polarity_from_pg(vpg, e))});
  }
  std::printf("%s\n", sweep.render().c_str());

  const double on = core::drain_current(e.vdd, e.v_polarity_high, e);
  const double off = core::drain_current(e.vdd, e.v_polarity_off, e);
  std::printf("on/off ratio at V0: %.0f (conduction minimum at mid-rail)\n\n",
              on / off);

  TextTable states({"polarity state", "CG low", "CG high"});
  for (const auto state : {core::PolarityState::kNType,
                           core::PolarityState::kPType,
                           core::PolarityState::kOff}) {
    states.add_row({core::to_string(state),
                    core::conducts(state, false) ? "conducts" : "off",
                    core::conducts(state, true) ? "conducts" : "off"});
  }
  std::printf("%s", states.render().c_str());
  std::printf("\nexpected: n follows CG, p inverts CG, V0 never conducts\n\n");

  const bool decode =
      core::polarity_from_pg(e.v_polarity_high, e) ==
          core::PolarityState::kNType &&
      core::polarity_from_pg(e.v_polarity_low, e) ==
          core::PolarityState::kPType &&
      core::polarity_from_pg(e.v_polarity_off, e) == core::PolarityState::kOff;
  using core::conducts;
  const bool table = !conducts(core::PolarityState::kNType, false) &&
                     conducts(core::PolarityState::kNType, true) &&
                     conducts(core::PolarityState::kPType, false) &&
                     !conducts(core::PolarityState::kPType, true) &&
                     !conducts(core::PolarityState::kOff, false) &&
                     !conducts(core::PolarityState::kOff, true);
  const bool minimum = std::abs(min_vpg - e.v_polarity_off) < 1e-9;
  std::printf("PG decode: V+ -> n, V- -> p, V0 -> off: %s\n",
              decode ? "yes" : "NO");
  std::printf("state table: n follows CG, p inverts it, off never "
              "conducts: %s\n",
              table ? "yes" : "NO");
  std::printf("sweep minimum of max(I(CG=VDD), I(CG=0)) at PG = V0: %s "
              "(%.3e A at %.2f V)\n",
              minimum ? "yes" : "NO", min_current, min_vpg);
  return decode && table && minimum ? 0 : 1;
}
