#include "serve/session.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/evaluator.h"
#include "espresso/espresso.h"
#include "util/error.h"

namespace ambit::serve {

Session::Session(int workers) : pool_(std::max(workers, 1)) {}

std::shared_ptr<const LoadedCircuit> Session::load(const std::string& name,
                                                   const std::string& path) {
  check(!name.empty(), "Session::load: empty circuit name");
  const auto start = std::chrono::steady_clock::now();
  // The full pipeline runs BEFORE the registry is touched (and outside
  // its lock): a failed LOAD leaves any same-named circuit untouched,
  // and a slow one never blocks concurrent lookups.
  auto circuit = std::make_shared<LoadedCircuit>();
  circuit->name = name;
  circuit->pla = logic::read_pla_file(path);
  const logic::Cover minimized =
      espresso::minimize(circuit->pla.onset, circuit->pla.dcset).cover;
  circuit->gnor = core::GnorPla::map_cover(minimized);
  circuit->load_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const MutexLock lock(mutex_);
  circuits_[name] = circuit;
  return circuit;
}

std::shared_ptr<const LoadedCircuit> Session::get(
    const std::string& name) const {
  const MutexLock lock(mutex_);
  const auto it = circuits_.find(name);
  if (it == circuits_.end()) {
    // Built only on failure: every EVAL looks its circuit up here.
    throw Error("no circuit loaded under '" + name + "'");
  }
  return it->second;
}

logic::PatternBatch Session::eval(
    const std::shared_ptr<const LoadedCircuit>& circuit,
    const logic::PatternBatch& inputs) {
  check(circuit != nullptr, "Session::eval: null circuit");
  // The mapped array is immutable post-LOAD and the shared_ptr keeps it
  // alive, so the evaluation runs with no lock held.
  return circuit->gnor.evaluate_batch(inputs, pool_);
}

simulate::BatchSimResult Session::sim(
    const std::shared_ptr<const LoadedCircuit>& circuit,
    const logic::PatternBatch& inputs) {
  check(circuit != nullptr, "Session::sim: null circuit");
  std::shared_ptr<const simulate::GnorPlaSimulator> simulator;
  {
    // Build the transistor network once per circuit, on first use —
    // concurrent first-SIMs serialize here; every later sweep only
    // copies the shared_ptr. The sweep itself runs OUTSIDE the lock
    // (simulate_batch settles per-shard network copies).
    const MutexLock lock(circuit->sim_mutex);
    if (circuit->simulator == nullptr) {
      circuit->simulator = std::make_shared<const simulate::GnorPlaSimulator>(
          circuit->gnor, tech::default_cnfet_electrical());
    }
    simulator = circuit->simulator;
  }
  return simulator->simulate_batch(inputs, &pool_);
}

bool Session::verify(const std::shared_ptr<const LoadedCircuit>& circuit) {
  check(circuit != nullptr, "Session::verify: null circuit");
  check(circuit->gnor.num_inputs() <= logic::TruthTable::kMaxInputs,
        "VERIFY supports at most " +
            std::to_string(logic::TruthTable::kMaxInputs) + " inputs");
  // Same-circuit verifies serialize here: the cache build must happen
  // once, and count_mismatches reads it under the same mutex.
  const MutexLock lock(circuit->verify_mutex);
  if (!circuit->reference.has_value() || !circuit->dontcare.has_value()) {
    // Build BOTH tables before caching EITHER: if the second build
    // throws (the request fails with ERR as usual), a later VERIFY
    // must retry the whole build rather than dereference a cached
    // reference next to an empty dontcare.
    logic::TruthTable reference =
        logic::TruthTable::from_cover(circuit->pla.onset);
    logic::TruthTable dontcare =
        logic::TruthTable::from_cover(circuit->pla.dcset);
    circuit->reference = std::move(reference);
    circuit->dontcare = std::move(dontcare);
  }
  const logic::TruthTable actual =
      exhaustive_truth_table(circuit->gnor, pool_);
  return actual.count_mismatches(*circuit->reference, &*circuit->dontcare) ==
         0;
}

void Session::unload(const std::string& name) {
  const MutexLock lock(mutex_);
  const auto it = circuits_.find(name);
  check(it != circuits_.end(), "no circuit loaded under '" + name + "'");
  circuits_.erase(it);
}

std::vector<std::string> Session::names() const {
  const MutexLock lock(mutex_);
  std::vector<std::string> result;
  result.reserve(circuits_.size());
  for (const auto& [name, circuit] : circuits_) {
    result.push_back(name);
  }
  return result;
}

}  // namespace ambit::serve
