#include "core/evaluator.h"

#include <algorithm>
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

std::vector<bool> Evaluator::evaluate(std::span<const bool> inputs) const {
  check_width(static_cast<int>(inputs.size()), num_inputs(), "evaluate");
  return do_evaluate(std::vector<bool>(inputs.begin(), inputs.end()));
}

namespace {

/// The batch half of the width contract, enforced on every kernel
/// result: output lane count and pattern count must match, and the tail
/// padding must be clean (a kernel leaving stray bits there would break
/// the bit-locality consumers — sharded pastes and the serve
/// coalescer's bit-packed fusion).
void check_batch_contract(const Evaluator& e, const logic::PatternBatch& in,
                          const logic::PatternBatch& out) {
  AMBIT_CHECK(out.num_signals() == e.num_outputs(),
              "Evaluator::evaluate_batch: kernel produced " +
                  std::to_string(out.num_signals()) +
                  " output lanes, contract says " +
                  std::to_string(e.num_outputs()));
  AMBIT_CHECK(out.num_patterns() == in.num_patterns(),
              "Evaluator::evaluate_batch: kernel changed the pattern count");
  out.assert_tail_clean("Evaluator::evaluate_batch (kernel result)");
}

}  // namespace

logic::PatternBatch Evaluator::evaluate_batch(
    const logic::PatternBatch& inputs) const {
  check_width(inputs.num_signals(), num_inputs(), "evaluate_batch");
  logic::PatternBatch out = do_evaluate_batch(inputs);
  check_batch_contract(*this, inputs, out);
  return out;
}

logic::PatternBatch Evaluator::evaluate_batch(const logic::PatternBatch& inputs,
                                              ThreadPool& pool) const {
  check_width(inputs.num_signals(), num_inputs(), "evaluate_batch");
  const std::uint64_t words = inputs.words_per_lane();
  // Below ~8 words (512 patterns) per worker the wakeup cost dominates;
  // fall through to the sequential kernel.
  constexpr std::uint64_t kMinWordsPerShard = 8;
  if (pool.num_workers() <= 1 || words < 2 * kMinWordsPerShard) {
    return do_evaluate_batch(inputs);
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
  check_batch_contract(*this, inputs, out);
  return out;
}

void Evaluator::do_evaluate_words(const logic::PatternBatch& inputs,
                                  logic::PatternBatch& out,
                                  std::uint64_t word_lo,
                                  std::uint64_t word_hi) const {
  const std::uint64_t first = word_lo * 64;
  const std::uint64_t count =
      std::min(inputs.num_patterns(), word_hi * 64) - first;
  const logic::PatternBatch shard_in = inputs.slice(first, count);
  const logic::PatternBatch shard_out = do_evaluate_batch(shard_in);
  check_batch_contract(*this, shard_in, shard_out);
  out.paste(shard_out, first);
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
