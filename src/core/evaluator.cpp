#include "core/evaluator.h"

#include <string>

#include "util/check.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace ambit {

namespace {

/// The single, uniform width error raised at the Evaluator boundary.
void check_width(int got, int expected, const char* entry) {
  if (got != expected) {
    throw Error(std::string("Evaluator::") + entry +
                ": input width mismatch (got " + std::to_string(got) +
                ", expected " + std::to_string(expected) + ")");
  }
}

}  // namespace

std::vector<bool> Evaluator::evaluate(const std::vector<bool>& inputs) const {
  check_width(static_cast<int>(inputs.size()), num_inputs(), "evaluate");
  std::vector<bool> out = do_evaluate(inputs);
  AMBIT_CHECK(static_cast<int>(out.size()) == num_outputs(),
              "Evaluator::evaluate: kernel produced " +
                  std::to_string(out.size()) + " outputs, contract says " +
                  std::to_string(num_outputs()));
  return out;
}

logic::PatternBatch Evaluator::evaluate_batch(
    const logic::PatternBatch& inputs) const {
  check_width(inputs.num_signals(), num_inputs(), "evaluate_batch");
  logic::PatternBatch out(num_outputs(), inputs.num_patterns());
  do_evaluate_words(inputs, out, 0, inputs.words_per_lane());
  // The base class sized the result, so the one part of the batch
  // contract a kernel can break is the tail padding: stray bits there
  // would break the bit-locality consumers (sharded sweeps and the serve
  // event loop's bit-packed fusion).
  out.assert_tail_clean("Evaluator::evaluate_batch (kernel result)");
  return out;
}

logic::PatternBatch Evaluator::evaluate_batch(const logic::PatternBatch& inputs,
                                              ThreadPool& pool) const {
  check_width(inputs.num_signals(), num_inputs(), "evaluate_batch");
  const std::uint64_t words = inputs.words_per_lane();
  // Below ~8 words (512 patterns) per worker the wakeup cost dominates;
  // fall through to the sequential sweep.
  constexpr std::uint64_t kMinWordsPerShard = 8;
  if (pool.num_workers() <= 1 || words < 2 * kMinWordsPerShard) {
    return evaluate_batch(inputs);
  }
  logic::PatternBatch out(num_outputs(), inputs.num_patterns());
  pool.parallel_for(
      0, words, kMinWordsPerShard,
      [&](std::uint64_t word_lo, std::uint64_t word_hi) {
        // The shard boundary contract: every shard is a non-empty word
        // range inside the batch — what makes the sharded sweep
        // bit-identical to the sequential one. Shards write disjoint
        // words of `out`, so they need no synchronization beyond
        // parallel_for's own join.
        AMBIT_CHECK(word_lo < word_hi && word_hi <= words,
                    "Evaluator::evaluate_batch: shard [" +
                        std::to_string(word_lo) + ", " +
                        std::to_string(word_hi) +
                        ") violates the word-aligned shard contract");
        do_evaluate_words(inputs, out, word_lo, word_hi);
      });
  out.assert_tail_clean("Evaluator::evaluate_batch (kernel result)");
  return out;
}

logic::TruthTable exhaustive_truth_table(const Evaluator& e) {
  check(e.num_inputs() <= logic::TruthTable::kMaxInputs,
        "exhaustive_truth_table: too many inputs");
  return logic::TruthTable::from_outputs(
      e.num_inputs(),
      e.evaluate_batch(logic::PatternBatch::exhaustive(e.num_inputs())));
}

logic::TruthTable exhaustive_truth_table(const Evaluator& e, ThreadPool& pool) {
  check(e.num_inputs() <= logic::TruthTable::kMaxInputs,
        "exhaustive_truth_table: too many inputs");
  return logic::TruthTable::from_outputs(
      e.num_inputs(),
      e.evaluate_batch(logic::PatternBatch::exhaustive(e.num_inputs()), pool));
}

bool equivalent(const Evaluator& e, const logic::TruthTable& table) {
  if (e.num_inputs() != table.num_inputs() ||
      e.num_outputs() != table.num_outputs()) {
    return false;
  }
  return exhaustive_truth_table(e) == table;
}

bool equivalent(const Evaluator& a, const Evaluator& b) {
  if (a.num_inputs() != b.num_inputs() ||
      a.num_outputs() != b.num_outputs()) {
    return false;
  }
  return exhaustive_truth_table(a) == exhaustive_truth_table(b);
}

}  // namespace ambit
