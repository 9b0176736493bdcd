// The serve session: loaded-and-mapped circuits, ready to answer.
//
// A one-shot ambit_cli run pays the whole pipeline — parse, Espresso
// minimization, GNOR mapping — for every single query. A Session pays
// it ONCE per LOAD and keeps the mapped array hot, keyed by name:
//
//   * EVAL answers from the sharded bit-parallel batch path
//     (Evaluator::evaluate_batch over the session's ThreadPool);
//   * SIM/SIMB answer switch-level timing queries from the same loaded
//     circuits: the transistor-level network is built ONCE per circuit
//     (lazily, on the first SIM) and every sweep rides
//     GnorPlaSimulator::simulate_batch sharded across the same pool;
//   * VERIFY re-checks the mapped array exhaustively against its
//     source cover, caching the reference truth tables per circuit so
//     a re-verify only pays the array sweep, not the cover sweep;
//   * STATS exposes the counters a long-running operator cares about.
//
// Thread model: the Session is shared by EVERY request the concurrent
// front door (serve/server.h) runs, so all of it is thread-safe: the
// registry map is guarded by one mutex held only for lookups and
// (un)registrations — never across an evaluation — circuits are handed
// out as shared_ptr so an UNLOAD can never pull a circuit out from
// under a running EVAL, counters are atomics so STATS stays exact under
// concurrent traffic, and the per-circuit verify cache is built under a
// per-circuit mutex. The expensive work (LOAD pipeline, batch
// evaluation, exhaustive verify sweeps) always runs OUTSIDE the
// registry lock; below that, the shared worker pool shards every batch
// (ThreadPool::parallel_for is safe for concurrent callers).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/gnor_pla.h"
#include "logic/pattern_batch.h"
#include "logic/pla_io.h"
#include "logic/truth_table.h"
#include "simulate/pla_sim.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace ambit::serve {

/// One circuit after the LOAD pipeline: source cover, minimized cover,
/// mapped GNOR array, lazily cached verification tables. The covers and
/// the mapped array are immutable once registered — that immutability
/// is what lets concurrent requests evaluate without a
/// per-circuit lock; only the verify cache mutates, under verify_mutex.
struct LoadedCircuit {
  std::string name;
  logic::PlaFile pla;            ///< as parsed from disk
  logic::Cover minimized;        ///< after Espresso
  core::GnorPla gnor;            ///< mapped once, evaluated many times
  double load_seconds = 0;       ///< parse+minimize+map wall time
  // Bookkeeping, not logical state: callers hold circuits as
  // shared_ptr<const LoadedCircuit>, and counting an eval must not
  // require shedding the const.
  mutable std::atomic<std::uint64_t> evals{0};     ///< EVAL requests served
  mutable std::atomic<std::uint64_t> patterns{0};  ///< patterns evaluated
  mutable std::atomic<std::uint64_t> sims{0};      ///< SIM/SIMB requests served
  mutable std::atomic<std::uint64_t> verifies{0};  ///< VERIFY requests served
  /// Reference truth tables (onset / don't-care) for VERIFY, built on
  /// first use under verify_mutex; this is the per-session cache that
  /// makes re-verify cheap. Mutable for the same reason as the
  /// counters: a cache fill through a shared_ptr-to-const handle.
  mutable Mutex verify_mutex{LockRank::kCircuitVerify};
  mutable std::optional<logic::TruthTable> reference
      AMBIT_GUARDED_BY(verify_mutex);
  mutable std::optional<logic::TruthTable> dontcare
      AMBIT_GUARDED_BY(verify_mutex);
  /// The transistor-level network for SIM/SIMB, built lazily on first
  /// use under sim_mutex (the mapped array is immutable, so one build
  /// serves the circuit's whole lifetime). Held shared-and-const:
  /// GnorPlaSimulator::simulate_batch settles per-shard COPIES, so any
  /// number of request threads can sweep through this one instance
  /// concurrently, and a caller mid-sweep survives an UNLOAD exactly
  /// like the mapped array does.
  mutable Mutex sim_mutex{LockRank::kCircuitSim};
  mutable std::shared_ptr<const simulate::GnorPlaSimulator> simulator
      AMBIT_GUARDED_BY(sim_mutex);

  LoadedCircuit() : minimized(0, 1), gnor(0, 0, 1) {}
};

/// Session-wide counters for STATS.
struct SessionStats {
  std::uint64_t loads = 0;
  std::uint64_t evals = 0;
  std::uint64_t patterns = 0;      ///< patterns through EVAL/EVALB
  std::uint64_t sims = 0;          ///< SIM/SIMB requests
  std::uint64_t sim_patterns = 0;  ///< patterns through SIM/SIMB
  std::uint64_t verifies = 0;
  int circuits = 0;
  int workers = 0;
};

/// A registry of loaded circuits sharing one worker pool. Safe to drive
/// from any number of threads concurrently.
class Session {
 public:
  /// `workers` threads shard every batch evaluation; <= 1 keeps the
  /// session sequential (still correct, see Evaluator::evaluate_batch).
  explicit Session(int workers = ThreadPool::default_workers());

  /// Runs the LOAD pipeline on `path` and registers the result under
  /// `name`, replacing any circuit previously loaded under that name.
  /// Throws ambit::Error (with file:line context from the parser) on
  /// malformed input. The pipeline runs outside the registry lock, so
  /// a slow LOAD never stalls concurrent EVALs.
  std::shared_ptr<const LoadedCircuit> load(const std::string& name,
                                            const std::string& path);

  /// The registered circuit; throws ambit::Error when unknown. The
  /// returned shared_ptr keeps the circuit alive across a concurrent
  /// UNLOAD or same-name reload.
  std::shared_ptr<const LoadedCircuit> get(const std::string& name) const;

  /// nullptr when unknown (no throw).
  std::shared_ptr<const LoadedCircuit> find(const std::string& name) const;

  /// Evaluates one batch through the sharded bit-parallel path and
  /// bumps the counters. Input width must match the circuit.
  logic::PatternBatch eval(const std::string& name,
                           const logic::PatternBatch& inputs);

  /// Same, against a circuit the caller already holds — no second
  /// registry lookup, and immune to a concurrent same-name reload
  /// swapping the circuit between the caller's width check and the
  /// evaluation.
  logic::PatternBatch eval(const std::shared_ptr<const LoadedCircuit>& circuit,
                           const logic::PatternBatch& inputs);

  /// The sharded batch evaluation alone, WITHOUT bumping any counter.
  /// The cross-connection coalescer (serve/coalesce.h) runs ONE fused
  /// sweep for many requests but must account per-request — it pairs
  /// this with one record_eval per member request, so STATS is exactly
  /// what uncoalesced execution would have reported.
  logic::PatternBatch eval_unrecorded(
      const std::shared_ptr<const LoadedCircuit>& circuit,
      const logic::PatternBatch& inputs);

  /// Counts one EVAL/EVALB request of `num_patterns` patterns against
  /// `circuit` (the bookkeeping half of eval, split out for the
  /// coalescer). Thread-safe: all counters are atomics.
  void record_eval(const std::shared_ptr<const LoadedCircuit>& circuit,
                   std::uint64_t num_patterns);

  /// Switch-level timing sweep through the circuit's lazily built
  /// transistor network (SIM/SIMB): per-pattern outputs AND phase
  /// delays, sharded across the session pool, bit-identical to a
  /// sequential sweep. Input width must match the circuit.
  simulate::BatchSimResult sim(const std::string& name,
                               const logic::PatternBatch& inputs);

  /// Same, against a circuit the caller already holds.
  simulate::BatchSimResult sim(
      const std::shared_ptr<const LoadedCircuit>& circuit,
      const logic::PatternBatch& inputs);

  /// Exhaustively re-checks the mapped array against the source cover
  /// (don't-cares ignored as always). Builds and caches the reference
  /// tables on first call. Requires the circuit to have at most
  /// TruthTable::kMaxInputs inputs. Concurrent verifies of the SAME
  /// circuit serialize on its verify_mutex; different circuits proceed
  /// in parallel.
  bool verify(const std::string& name);

  /// Same, against a circuit the caller already holds (no second
  /// registry lookup).
  bool verify(const std::shared_ptr<const LoadedCircuit>& circuit);

  /// Drops a circuit; throws when unknown. In-flight evaluations that
  /// already hold the circuit finish normally.
  void unload(const std::string& name);

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  SessionStats stats() const;

  ThreadPool& pool() { return pool_; }

 private:
  std::shared_ptr<LoadedCircuit> get_shared(const std::string& name) const;

  ThreadPool pool_;
  /// Guards circuits_ — lookups and edits only, never held across
  /// LOAD/EVAL/verify work (its rank sits BELOW the pool's, so holding
  /// it across a sharded sweep would abort in invariant builds).
  mutable Mutex mutex_{LockRank::kSessionRegistry};
  std::map<std::string, std::shared_ptr<LoadedCircuit>> circuits_
      AMBIT_GUARDED_BY(mutex_);
  // Session-lifetime counters: cumulative across UNLOADs and same-name
  // reloads, so STATS never goes backwards (the per-circuit counters in
  // LoadedCircuit die with the circuit). Atomics keep them exact when
  // many request threads bump them at once.
  std::atomic<std::uint64_t> loads_{0};
  std::atomic<std::uint64_t> evals_{0};
  std::atomic<std::uint64_t> patterns_{0};
  std::atomic<std::uint64_t> sims_{0};
  std::atomic<std::uint64_t> sim_patterns_{0};
  std::atomic<std::uint64_t> verifies_{0};
};

}  // namespace ambit::serve
