// The compiled sweep program: the one batch and shard path of every PLA
// model.
//
// The paper's circuits are cascades of NOR planes joined by routes: the
// two-plane GNOR PLA (§4), the classical PLA it is measured against
// (Table 1), and the Whirlpool PLA and plane/crossbar fabric of
// Figs. 3–4 (§5). A SweepProgram is that cascade over one lane space —
// the caller's input lanes, then each stage's rows — as ordered stages
// of lane-kernel sweep rows (logic/lane_kernels.h). A stage's term
// reads one lane of the space, so a crossbar route is the term's lane
// index and a feed-through is a stage that reads back past the stage
// before it. An output buffer tap folds into its row's final polarity.
//
// run() sweeps a range of lane words in L2-sized tiles, sized for the
// larger of the scratch lanes and the most lanes one stage reads. It is
// the one tiler of the evaluation path: each lane-kernel call covers
// exactly one cache tile. A stage reads the caller's input lanes in
// place or a lane of the scratch tile, and writes a tile lane or, for
// the last stage, the caller's output lanes in place. Intermediate rows therefore never reach memory, and a shard
// (Evaluator::do_evaluate_words) is the same call over its own words.
//
// A program is a view. Its stages point at rows and terms that each
// model compiles once and keeps current as it is reprogrammed
// (CompiledPlane::connect behind GnorPlane::set_cell and
// ClassicalPla::set_*, Fabric::add_stage); a model assembles the view
// per call from a few pointers, so evaluation is const, allocates
// nothing but its tile, and caches nothing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "logic/lane_kernels.h"
#include "logic/pattern_batch.h"

namespace ambit::core {

/// A stage's `from` or `to` meaning the caller's lanes, in place: the
/// input batch's lanes when read, the output batch's when written.
inline constexpr std::uint64_t kCallerLanes = ~std::uint64_t{0};

/// One NOR plane of a program.
struct SweepStage {
  const logic::lanes::SweepRow* rows = nullptr;
  std::uint64_t num_rows = 0;
  const logic::lanes::SweepTerm* terms = nullptr;
  /// Term lane t reads lane `from + t` of the scratch tile, or input
  /// lane t in place when `from` is kCallerLanes; `num_lanes` is how
  /// many lanes the terms may read.
  std::uint64_t num_lanes = 0;
  std::uint64_t from = kCallerLanes;
  /// Row r writes tile lane `to + r`, or output lane r in place when
  /// `to` is kCallerLanes (only the last stage does).
  std::uint64_t to = kCallerLanes;
  /// Output buffer taps, one per row, or null: an inverting tap cancels
  /// the NOR's complement, so its row keeps the raw OR.
  const std::vector<bool>* taps = nullptr;
};

/// A cascade of stages over one lane space (see the file comment).
struct SweepProgram {
  std::span<const SweepStage> stages;
  /// Copies the caller's input lanes into tile lanes [0, inputs) before
  /// the stages of each tile run, for a stage that reads them beside
  /// tile lanes (a WPLA's second PLA, a fabric's feed-through).
  bool stage_inputs = false;

  /// Sweeps lane words [word_lo, word_hi) of `inputs` through every
  /// stage into the same words of `out`, a batch of the last stage's
  /// rows over inputs' patterns, and writes no other word of `out`.
  void run(const logic::PatternBatch& inputs, logic::PatternBatch& out,
           std::uint64_t word_lo, std::uint64_t word_hi) const;
};

/// A NOR plane compiled into sweep rows and kept current connection by
/// connection. Row r owns the term slots [r * slots, (r + 1) * slots),
/// of which the first num_terms are live, sorted by (lane, invert), so
/// connecting a row's terms in that order appends and building a plane
/// stays linear. Rows are NOR rows (complement set).
class CompiledPlane {
 public:
  CompiledPlane(int rows, int slots_per_row);

  /// Connects `term` to row `row`, or disconnects it. Connecting a live
  /// term, or disconnecting an absent one, changes nothing.
  void connect(int row, logic::lanes::SweepTerm term, bool connected);

  /// The plane as a stage reading `num_lanes` lanes at `from` and
  /// writing its rows at `to` (see SweepStage).
  SweepStage stage(std::uint64_t num_lanes, std::uint64_t from,
                   std::uint64_t to,
                   const std::vector<bool>* taps = nullptr) const {
    return {rows_.data(), rows_.size(), terms_.data(), num_lanes, from, to,
            taps};
  }

 private:
  std::uint64_t slots_;
  std::vector<logic::lanes::SweepRow> rows_;
  std::vector<logic::lanes::SweepTerm> terms_;
};

}  // namespace ambit::core
