// The switch-level simulator behind the unified Evaluator interface.
//
// SimEvaluator makes the transistor-level GnorPlaSimulator a drop-in
// ambit::Evaluator: the same scalar/batch entry points, the same
// uniform width validation, the same word-packed PatternBatch results
// as the logic-level circuit models — so every existing batch≡scalar
// harness, equivalence checker and sweep driver can run the SIMULATOR
// as its device under test. That is the strongest oracle the repo has:
// transistor-level settles checked bit-for-bit against the logic-level
// evaluate_batch kernels across thousands of patterns
// (tests/pla_sim_test.cpp, tests/property_test.cpp).
//
// The adapter is deliberately strict about signal integrity: an output
// that fails to settle to a definite 0/1 (possible only under fault
// injection or non-digital stimuli) is an ambit::Error, never a
// silently coerced bit.
#pragma once

#include <vector>

#include "core/evaluator.h"
#include "core/gnor_pla.h"
#include "logic/pattern_batch.h"
#include "simulate/pla_sim.h"

namespace ambit::simulate {

/// Evaluates a GnorPla by full switch-level simulation.
class SimEvaluator : public Evaluator {
 public:
  SimEvaluator(const core::GnorPla& pla,
               const tech::CnfetElectrical& electrical);

  int num_inputs() const override { return sim_.num_inputs(); }
  int num_outputs() const override { return sim_.num_outputs(); }

  /// The wrapped simulator (e.g. for fault injection through
  /// override_cell before evaluating, or direct timing sweeps).
  GnorPlaSimulator& simulator() { return sim_; }
  const GnorPlaSimulator& simulator() const { return sim_; }

 protected:
  std::vector<bool> do_evaluate(
      const std::vector<bool>& inputs) const override;
  /// Simulates lane words [word_lo, word_hi) as a batch of their own
  /// (a slice of `inputs`) and pastes the outputs into `out`.
  void do_evaluate_words(const logic::PatternBatch& inputs,
                         logic::PatternBatch& out, std::uint64_t word_lo,
                         std::uint64_t word_hi) const override;

 private:
  // The evaluation hooks are const (the Evaluator contract lets callers
  // shard one evaluator across threads); simulate_batch already settles
  // per-shard copies of the built network, so no mutable state is
  // shared between concurrent calls.
  GnorPlaSimulator sim_;
};

}  // namespace ambit::simulate
