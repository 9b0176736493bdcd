#include "simulate/sim_evaluator.h"

#include <algorithm>

#include "util/error.h"

namespace ambit::simulate {

SimEvaluator::SimEvaluator(const core::GnorPla& pla,
                           const tech::CnfetElectrical& electrical)
    : sim_(pla, electrical) {}

std::vector<bool> SimEvaluator::do_evaluate(
    const std::vector<bool>& inputs) const {
  // One-pattern batch: the scalar path must agree with the batch path
  // by construction, not by a parallel implementation.
  logic::PatternBatch batch(num_inputs(), 1);
  batch.set_pattern(0, inputs);
  const BatchSimResult result = sim_.simulate_batch(batch);
  check(result.all_definite(),
        "SimEvaluator: output failed to settle to a definite value");
  return result.outputs.pattern(0);
}

void SimEvaluator::do_evaluate_words(const logic::PatternBatch& inputs,
                                     logic::PatternBatch& out,
                                     std::uint64_t word_lo,
                                     std::uint64_t word_hi) const {
  if (word_lo == word_hi) {
    return;  // an empty batch: slice() rejects a count of 0
  }
  const std::uint64_t first = word_lo * 64;
  const std::uint64_t count =
      std::min(inputs.num_patterns(), word_hi * 64) - first;
  const BatchSimResult result =
      sim_.simulate_batch(inputs.slice(first, count));
  check(result.all_definite(),
        "SimEvaluator: output failed to settle to a definite value");
  out.paste(result.outputs, first);
}

}  // namespace ambit::simulate
