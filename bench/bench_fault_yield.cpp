// Fault tolerance (paper §5, reference [6]): "a fault-tolerant design
// approach for PLAs makes use of the regular architecture and is
// expected to improve the yield of the unreliable devices making up
// the PLA."
//
// Monte-Carlo yield of a GNOR PLA under per-cell defects (stuck-off /
// stuck-n / stuck-p), comparing naive in-place programming against the
// defect-aware row matcher with spare rows.
#include <cstdio>

#include "espresso/espresso.h"
#include "fault/yield.h"
#include "logic/pla_io.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace ambit;

int main() {
  // A bad AMBIT_THREADS is a usage error (exit 2), read before any work.
  int workers = 1;
  try {
    workers = ThreadPool::default_workers();
  } catch (const Error& e) {
    std::fprintf(stderr, "bench_fault_yield: %s\n", e.what());
    return 2;
  }
  std::printf("=== Yield vs defect rate: naive vs defect-aware mapping ===\n\n");

  const auto pla_file =
      logic::read_pla_file(std::string(AMBIT_DATA_DIR) + "/max46.pla");
  const auto minimized = espresso::minimize(pla_file.onset, pla_file.dcset);
  const auto pla = core::GnorPla::map_cover(minimized.cover);
  std::printf("array: max46 mapped as %d products x %d inputs\n",
              pla.num_products(), pla.num_inputs());

  const std::vector<double> rates = {0.0, 0.002, 0.005, 0.01, 0.02, 0.05};
  for (const int spares : {0, 4, 8}) {
    // functional_check: every successful repair is re-verified against
    // the nominal function by an exhaustive bit-parallel batch sweep
    // (2^9 patterns per trial — affordable only because of the word-
    // packed Evaluator batch path). Trials fan across the machine; the
    // per-trial RNG streams keep the curve identical at any width.
    const auto curve = fault::yield_sweep(
        pla, rates,
        fault::YieldSpec{.spare_rows = spares, .trials = 300,
                         .functional_check = true,
                         .workers = workers});
    TextTable table({"defect rate", "naive yield", "repaired yield",
                     "functional yield", "mean relocations"});
    for (const auto& point : curve) {
      table.add_row({format_double(point.defect_rate * 100, 1) + "%",
                     format_double(point.naive_yield * 100, 1) + "%",
                     format_double(point.repaired_yield * 100, 1) + "%",
                     format_double(point.functional_yield * 100, 1) + "%",
                     format_double(point.mean_relocations, 1)});
    }
    std::printf("\nspare rows: %d\n%s", spares, table.render().c_str());
  }
  std::printf(
      "\nshape: defect-aware matching dominates naive programming at every\n"
      "rate, spare rows extend the usable defect-rate range — the\n"
      "regularity argument the paper borrows from [6] — and every repair\n"
      "the matcher accepts verifies functionally (repaired == functional).\n");
  return 0;
}
