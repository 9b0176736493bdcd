// The unified evaluation interface for every programmable circuit type.
//
// All AMBIT circuit models (GnorPla, ClassicalPla, Wpla, Fabric — and
// the transistor-level simulator via simulate::SimEvaluator, which
// makes the switch-level network a drop-in oracle for every harness
// written against this interface) expose the same two entry points:
//
//   * evaluate(inputs)        — one pattern in, one pattern out;
//   * evaluate_batch(batch)   — N patterns in, N patterns out, computed
//                               word-parallel (64 patterns per uint64
//                               lane, see logic/pattern_batch.h).
//
// The base class is a non-virtual interface: the public entry points
// validate the input width ONCE, uniformly, throwing ambit::Error with
// a consistent message, and then dispatch to the protected do_* hooks.
// Derived classes therefore never re-implement width checking and the
// batch path is guaranteed to accept exactly the shapes the scalar path
// accepts.
//
// A model has one batch hook, do_evaluate_words, which fills a range of
// lane words of a result the base class has already sized. The whole
// batch is the one range of every word; a shard of the sharded
// evaluate_batch is a range of its own. The four PLA models (GnorPla,
// ClassicalPla, Wpla, Fabric) run their compiled SweepProgram
// (core/sweep_program.h) over the range in place; SimEvaluator
// simulates the range as a batch of its own and pastes it back.
//
// Exhaustive sweeps — verification, Table 1/2-style comparisons, fault
// Monte-Carlo — should go through evaluate_batch: on a GNOR plane the
// inner loop becomes AND/OR/NOT over packed lanes instead of per-bit
// branching, which is an order of magnitude faster (measured in
// bench/bench_batch_eval.cpp).
//
// THE BIT-LOCALITY CONTRACT (docs/ARCHITECTURE.md has the long form):
// every batch kernel must be bitwise over the lane words —
// output bit b of lane word w may depend only on bit b of word w of
// the input lanes. Two load-bearing consequences:
//   * word-aligned sharding (the pool overload below) is bit-identical
//     to the sequential sweep for any worker count;
//   * batches packed back-to-back at BIT granularity (the serve event
//     loop's per-turn fusion, Server::serve_batch) evaluate to exactly
//     the concatenation of their separate results.
// A kernel that carries state across bit positions — shifts across
// patterns, arithmetic carries, pattern-index logic — violates both;
// do not add one without revisiting those call sites (the property
// suites in tests/evaluator_test.cpp and tests/property_test.cpp
// catch violations).
//
// Thread-safety: evaluation is const and touches no shared mutable
// state, so any number of threads may evaluate the SAME immutable
// model concurrently (the serve layer relies on this — one loaded
// circuit answers every concurrent request). Mutating a model (e.g.
// reprogramming cells) while another thread evaluates it is a data
// race; the serve registry sidesteps it by treating loaded circuits
// as immutable and replacing them wholesale.
#pragma once

#include <cstdint>
#include <vector>

#include "logic/pattern_batch.h"
#include "logic/truth_table.h"

namespace ambit {

class ThreadPool;

/// Abstract N-input / M-output combinational evaluator.
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  virtual int num_inputs() const = 0;
  virtual int num_outputs() const = 0;

  /// Scalar path: evaluates one input pattern. Throws ambit::Error when
  /// inputs.size() != num_inputs().
  std::vector<bool> evaluate(const std::vector<bool>& inputs) const;

  /// Bit-parallel path: evaluates every pattern of the batch in one
  /// pass. Allocates the result, num_outputs() lanes over the same
  /// pattern count, and fills it through do_evaluate_words over every
  /// word. Throws ambit::Error when batch.num_signals() != num_inputs().
  logic::PatternBatch evaluate_batch(const logic::PatternBatch& inputs) const;

  /// Sharded bit-parallel path: splits the batch into word-aligned
  /// ranges of lane words and evaluates them on `pool` through
  /// do_evaluate_words, each shard writing its own words of the one
  /// result batch. By the bit-locality contract above, the result is
  /// BIT-IDENTICAL to the single-thread evaluate_batch for any pattern
  /// count, including non-multiples of 64 — the shard partition is
  /// word-aligned and deterministic (util/thread_pool.h). Small batches
  /// (< 16 words per lane) fall through to evaluate_batch(inputs). Safe
  /// for concurrent callers sharing one pool (each call joins only its
  /// own shards), and from a task running on `pool` itself: the caller
  /// runs shards too, so the call shards across whichever workers are
  /// free and never deadlocks (util/thread_pool.h, nested calls).
  logic::PatternBatch evaluate_batch(const logic::PatternBatch& inputs,
                                     ThreadPool& pool) const;

 protected:
  /// Width-validated scalar evaluation hook.
  virtual std::vector<bool> do_evaluate(
      const std::vector<bool>& inputs) const = 0;

  /// Width-validated batch hook, the only one: evaluates lane words
  /// [word_lo, word_hi) of `inputs` into the same words of `out`, a
  /// batch of num_outputs() lanes over inputs.num_patterns() patterns,
  /// and writes no other word. The range is empty only for an empty
  /// batch. The sharded evaluate_batch calls it concurrently on disjoint
  /// ranges of one `out`, so it must be const and touch nothing shared
  /// but its own words.
  virtual void do_evaluate_words(const logic::PatternBatch& inputs,
                                 logic::PatternBatch& out,
                                 std::uint64_t word_lo,
                                 std::uint64_t word_hi) const = 0;
};

/// Evaluates every minterm of the evaluator's input space through the
/// batch path and returns the result as a truth table (the batch lane
/// layout IS the truth-table word layout, see pattern_batch.h).
/// Requires num_inputs() <= TruthTable::kMaxInputs.
logic::TruthTable exhaustive_truth_table(const Evaluator& e);

/// Sharded variant: the exhaustive sweep runs across `pool`'s workers.
/// Bit-identical to the sequential overload.
logic::TruthTable exhaustive_truth_table(const Evaluator& e, ThreadPool& pool);

/// True when the evaluator computes exactly the function denoted by
/// `table` (exhaustive, via the batch path).
bool equivalent(const Evaluator& e, const logic::TruthTable& table);

/// True when two evaluators of the same shape compute the same function
/// (exhaustive, via the batch path).
bool equivalent(const Evaluator& a, const Evaluator& b);

}  // namespace ambit
