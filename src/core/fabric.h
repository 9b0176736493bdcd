// Interleaved PLA / interconnect fabric (paper §4, Fig. 3).
//
// "Interleaving PLA and interconnects enables cascades of NOR planes
//  and realizes any logic function."
//
// A Fabric is a pipeline of stages. Each stage routes the current
// signal bus through an ambipolar-CNFET crossbar onto the input columns
// of a GNOR plane; the plane's row outputs (optionally concatenated
// with the incoming bus, modelling feed-through tracks) become the next
// bus. Two stages with identity routing reproduce a PLA; four stages
// reproduce the Whirlpool-PLA NOR-NOR-NOR-NOR structure (§5).
//
// add_stage compiles the stage onto the fabric's SweepProgram
// (core/sweep_program.h), whose lane space is the primary inputs, then
// every stage's rows: a cell's term reads the lane its column is routed
// from, so a route is a lane index, a feed-through keeps earlier lanes
// on the bus, and the batch path copies no lane between stages.
#pragma once

#include <vector>

#include "core/crossbar.h"
#include "core/evaluator.h"
#include "core/gnor_plane.h"

namespace ambit::core {

/// One routing + plane stage of the fabric.
struct FabricStage {
  /// Horizontal wires = incoming bus signals; vertical wires = plane
  /// input columns. Each plane column must be driven by at most one
  /// closed switch; undriven columns read as logic low (the fabric
  /// ties floating columns to ground through a weak keeper).
  Crossbar routing;
  /// rows = stage outputs, cols = plane inputs.
  GnorPlane plane;
  /// When true the incoming bus is carried past the plane, so the next
  /// stage sees [bus … plane outputs]; when false only the plane
  /// outputs continue.
  bool feed_through = false;

  FabricStage(Crossbar r, GnorPlane p, bool feed = false)
      : routing(std::move(r)), plane(std::move(p)), feed_through(feed) {}
};

/// A cascade of GNOR planes and crossbars evaluated functionally.
class Fabric : public Evaluator {
 public:
  explicit Fabric(int primary_inputs);

  /// Appends a stage; validates that the routing matches the current
  /// bus width and the plane's column count, and that no plane column
  /// has multiple drivers.
  void add_stage(FabricStage stage);

  int num_primary_inputs() const { return primary_inputs_; }
  int num_stages() const { return static_cast<int>(stages_.size()); }

  /// Bus width after the last stage (= width of evaluate()'s result).
  int bus_width() const { return static_cast<int>(bus_.size()); }

  int num_inputs() const override { return primary_inputs_; }
  int num_outputs() const override { return bus_width(); }

  const FabricStage& stage(int i) const;

  /// Total programmable cells (plane cells + crossbar crosspoints).
  long long cell_count() const;

  /// Builds the identity routing crossbar for `bus` signals onto a
  /// plane with `columns` inputs (bus signal i drives column i; extra
  /// columns stay undriven).
  static Crossbar identity_routing(int bus, int columns);

 protected:
  /// Evaluates the full cascade.
  std::vector<bool> do_evaluate(const std::vector<bool>& inputs) const override;
  /// Runs the compiled program over lane words [word_lo, word_hi).
  void do_evaluate_words(const logic::PatternBatch& inputs,
                         logic::PatternBatch& out, std::uint64_t word_lo,
                         std::uint64_t word_hi) const override;

 private:
  int primary_inputs_;
  std::vector<FabricStage> stages_;
  // The compiled program: every stage's rows in order with their terms
  // on the lane space, the bus as one pass term on each signal's lane,
  // and output_rows_ copying the bus out when it is not the last
  // stage's rows alone (row i is bus signal i as a raw OR).
  std::vector<logic::lanes::SweepRow> rows_;
  std::vector<logic::lanes::SweepTerm> terms_;
  std::vector<logic::lanes::SweepTerm> bus_;
  std::vector<logic::lanes::SweepRow> output_rows_;

  void compile_outputs();
};

}  // namespace ambit::core
