#include "core/fabric.h"

#include "util/error.h"

namespace ambit::core {

Fabric::Fabric(int primary_inputs) : primary_inputs_(primary_inputs) {
  check(primary_inputs >= 0, "Fabric: negative input count");
  for (int i = 0; i < primary_inputs; ++i) {
    bus_.push_back({.lane = i});
  }
  compile_outputs();
}

void Fabric::compile_outputs() {
  // Row i reads term i alone, so a prefix serves any narrower bus.
  for (std::size_t i = output_rows_.size(); i < bus_.size(); ++i) {
    output_rows_.push_back(
        {.first_term = i, .num_terms = 1, .complement = false});
  }
}

const FabricStage& Fabric::stage(int i) const {
  check(i >= 0 && i < num_stages(), "Fabric::stage: index out of range");
  return stages_[static_cast<std::size_t>(i)];
}

void Fabric::add_stage(FabricStage stage) {
  check(stage.routing.num_horizontal() == bus_width(),
        "Fabric::add_stage: routing width does not match current bus");
  check(stage.routing.num_vertical() == stage.plane.cols(),
        "Fabric::add_stage: routing does not match plane columns");
  // The lane each column is routed from, or -1 for an undriven column.
  std::vector<int> route(static_cast<std::size_t>(stage.plane.cols()), -1);
  for (int v = 0; v < stage.routing.num_vertical(); ++v) {
    for (int h = 0; h < stage.routing.num_horizontal(); ++h) {
      if (stage.routing.switch_on(h, v)) {
        int& lane = route[static_cast<std::size_t>(v)];
        check(lane < 0, "Fabric::add_stage: plane column has multiple drivers");
        lane = bus_[static_cast<std::size_t>(h)].lane;
      }
    }
  }
  if (!stage.feed_through) {
    bus_.clear();
  }
  // An undriven column reads 0: a pass cell on it never conducts, and an
  // invert cell always does, which leaves its row 0 — a row of no terms
  // that keeps its raw OR.
  const int first_lane = primary_inputs_ + static_cast<int>(rows_.size());
  for (int r = 0; r < stage.plane.rows(); ++r) {
    logic::lanes::SweepRow row{.first_term = terms_.size()};
    for (int c = 0; c < stage.plane.cols(); ++c) {
      const CellConfig cell = stage.plane.cell(r, c);
      const int lane = route[static_cast<std::size_t>(c)];
      if (cell != CellConfig::kOff && lane >= 0) {
        terms_.push_back(
            {.lane = lane, .invert = cell == CellConfig::kInvert});
      } else if (cell == CellConfig::kInvert) {
        row.complement = false;
      }
    }
    if (!row.complement) {
      terms_.resize(row.first_term);
    }
    row.num_terms = terms_.size() - row.first_term;
    rows_.push_back(row);
    bus_.push_back({.lane = first_lane + r});
  }
  compile_outputs();
  stages_.push_back(std::move(stage));
}

std::vector<bool> Fabric::do_evaluate(const std::vector<bool>& inputs) const {
  std::vector<bool> bus = inputs;
  for (const FabricStage& s : stages_) {
    std::vector<bool> plane_inputs(static_cast<std::size_t>(s.plane.cols()),
                                   false);
    for (int v = 0; v < s.routing.num_vertical(); ++v) {
      for (int h = 0; h < s.routing.num_horizontal(); ++h) {
        if (s.routing.switch_on(h, v)) {
          plane_inputs[static_cast<std::size_t>(v)] =
              bus[static_cast<std::size_t>(h)];
          break;  // at most one driver (validated in add_stage)
        }
      }
    }
    const std::vector<bool> outputs = s.plane.evaluate(plane_inputs);
    if (s.feed_through) {
      bus.insert(bus.end(), outputs.begin(), outputs.end());
    } else {
      bus = outputs;
    }
  }
  return bus;
}

void Fabric::do_evaluate_words(const logic::PatternBatch& inputs,
                               logic::PatternBatch& out,
                               std::uint64_t word_lo,
                               std::uint64_t word_hi) const {
  // Lane l is tile lane l: the primary inputs are staged at the front,
  // and each stage writes its rows after the lanes before it. The last
  // stage writes the caller's lanes when the bus is its rows alone;
  // otherwise output_rows_ copy the bus out.
  std::vector<SweepStage> program;
  auto lane = static_cast<std::uint64_t>(primary_inputs_);
  for (const FabricStage& s : stages_) {
    const auto rows = static_cast<std::uint64_t>(s.plane.rows());
    program.push_back({rows_.data() + (lane - primary_inputs_), rows,
                       terms_.data(), lane, 0, lane});
    lane += rows;
  }
  if (!stages_.empty() && !stages_.back().feed_through) {
    program.back().to = kCallerLanes;
  } else {
    program.push_back({output_rows_.data(), bus_.size(), bus_.data(), lane,
                       0, kCallerLanes});
  }
  SweepProgram{program, /*stage_inputs=*/true}.run(inputs, out, word_lo,
                                                    word_hi);
}

long long Fabric::cell_count() const {
  long long cells = 0;
  for (const FabricStage& s : stages_) {
    cells += s.plane.cell_count() + s.routing.cell_count();
  }
  return cells;
}

Crossbar Fabric::identity_routing(int bus, int columns) {
  Crossbar xb(bus, columns);
  const int n = bus < columns ? bus : columns;
  for (int i = 0; i < n; ++i) {
    xb.set_switch(i, i, true);
  }
  return xb;
}

}  // namespace ambit::core
