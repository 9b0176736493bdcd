#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "espresso/espresso.h"
#include "espresso/expand.h"
#include "espresso/irredundant.h"
#include "espresso/reduce.h"
#include "espresso/unate.h"
#include "logic/lane_kernels.h"
#include "logic/pla_io.h"
#include "serve/conn_state.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/metrics.h"

namespace perfbench {

namespace {

using ambit::logic::Cover;
using ambit::logic::PatternBatch;
using ambit::serve::ConnState;

constexpr int kClassifyReps = 3000;
constexpr int kBulkReps = 40;
constexpr int kIdleWaitProbes = 2000;
// The evaluator's shard grain (words per chunk) whose slice/paste
// partition shard.copy replays.
constexpr std::uint64_t kShardGrain = 8;

double med(const Tracer& t, const char* name) { return median(t.durations(name)); }
double med_self(const Tracer& t, const char* name) {
  return median(t.self_times(name));
}
double sum(const Tracer& t, const char* name) {
  double total = 0;
  for (double us : t.durations(name)) {
    total += us;
  }
  return total;
}

/// One classify request through Server::serve_chunks, then through each
/// layer below it in turn: ConnState framing, protocol parsing, the
/// Session evaluation (with the bare evaluator sweep as its child), and
/// response encoding.
void replay_classify(const Reference& ref, ambit::serve::Session& session,
                     Tracer& tracer, Tally& tally) {
  ambit::metrics::Registry registry;
  ambit::serve::ServerOptions options;
  options.registry = &registry;
  ambit::serve::Server server(session, options);
  const auto circuit = session.get(ref.heavy().name);
  const int width = circuit->gnor.num_inputs();
  for (int r = 0; r < kClassifyReps; ++r) {
    const ClassifyRequest& req = ref.classify[static_cast<std::size_t>(r) %
                                              ref.classify.size()];
    const auto id = static_cast<std::uint64_t>(r);
    ++tally.attempted;

    const std::int64_t root = tracer.begin("server.request", -1, id);
    std::string served;
    bool fed = false;
    server.serve_chunks(
        [&]() -> std::string {
          if (fed) {
            return {};
          }
          fed = true;
          return req.line;
        },
        served);
    tracer.end(root);

    std::int64_t s = tracer.begin("framing.line", root, id);
    ConnState state(ConnState::PayloadMode::kBuffered);
    state.append(req.line.data(), req.line.size());
    const bool framed = state.advance() == ConnState::Step::kRequest;
    const std::string line = state.line();
    state.finish_request(false);
    tracer.end(s);

    s = tracer.begin("protocol.parse", root, id);
    const ambit::serve::Request request = ambit::serve::parse_request(line);
    std::vector<std::vector<bool>> patterns;
    patterns.reserve(request.patterns.size());
    for (const std::string& token : request.patterns) {
      patterns.push_back(ambit::serve::hex_decode(token, width));
    }
    const PatternBatch inputs = PatternBatch::from_patterns(patterns);
    tracer.end(s);

    s = tracer.begin("session.eval", root, id);
    const PatternBatch outputs = session.eval(circuit, inputs);
    tracer.end(s);
    const std::int64_t e = tracer.begin("eval.tiny", s, id);
    const PatternBatch direct =
        circuit->gnor.evaluate_batch(inputs, session.pool());
    tracer.end(e);

    s = tracer.begin("protocol.encode", root, id);
    std::string detail;
    for (std::uint64_t p = 0; p < outputs.num_patterns(); ++p) {
      if (!detail.empty()) {
        detail += ' ';
      }
      detail += ambit::serve::hex_encode(outputs.pattern(p));
    }
    const std::string encoded = ambit::serve::ok_response(detail);
    tracer.end(s);

    if (!framed || served != req.expected + "\n" || encoded != req.expected ||
        !(direct == outputs)) {
      ++tally.failed;
    }
  }
}

/// A plane's pull-down network as lane-kernel sweep rows, built the way
/// GnorPlane::evaluate_batch builds them.
struct PlaneSweep {
  std::vector<ambit::logic::lanes::SweepRow> rows;
  std::vector<ambit::logic::lanes::SweepTerm> terms;

  explicit PlaneSweep(const ambit::core::GnorPlane& plane) {
    for (int r = 0; r < plane.rows(); ++r) {
      const std::uint64_t first = terms.size();
      for (int c = 0; c < plane.cols(); ++c) {
        const ambit::core::CellConfig cell = plane.cell(r, c);
        if (cell != ambit::core::CellConfig::kOff) {
          terms.push_back({.lane = c,
                           .invert = cell == ambit::core::CellConfig::kInvert});
        }
      }
      rows.push_back({.first_term = first,
                      .num_terms = terms.size() - first,
                      .complement = true});
    }
  }

  void run(const PatternBatch& in, PatternBatch& out) const {
    ambit::logic::lanes::nor_plane_sweep(rows.data(), rows.size(), terms.data(),
                                         in, out);
  }
};

/// Bytes a sweep of `gnor` over `words` lane words must move at least:
/// every input lane read once and every output lane written once, in
/// each plane.
double sweep_bytes(const ambit::core::GnorPla& gnor, std::uint64_t words) {
  const double lanes = gnor.num_inputs() + 2.0 * gnor.num_products() +
                       gnor.num_outputs();
  return lanes * static_cast<double>(words) * sizeof(std::uint64_t);
}

/// The bulk frame through ConnState, the sequential evaluator sweep and
/// its two plane kernels, the sharded sweep and its slice/paste copies,
/// and a memcpy over the bytes a sweep moves. The plane kernels run on
/// lanes allocated once, so their spans hold kernel time alone and the
/// sweep's allocations land in eval.self_us.
void replay_bulk(const Reference& ref, ambit::ThreadPool& pool, Tracer& tracer,
                 Tally& tally) {
  const BulkFrame& frame = ref.bulk.front();
  const ambit::core::GnorPla& gnor = ref.heavy().gnor;
  const PatternBatch& inputs = frame.inputs;
  const std::uint64_t words = inputs.words_per_lane();
  const std::uint64_t np = inputs.num_patterns();

  PatternBatch expected(gnor.num_outputs(), np);
  expected.load_words(frame.expected_words.data(), frame.expected_words.size());
  // The shard outputs the copy replay pastes, keyed by first pattern,
  // over the partition parallel_for draws for this range and grain.
  std::map<std::uint64_t, PatternBatch> shard_out;
  std::mutex shard_mutex;
  const auto shard_range = [np](std::uint64_t lo, std::uint64_t hi) {
    const std::uint64_t first = lo * 64;
    return std::pair{first, std::min(np, hi * 64) - first};
  };
  pool.parallel_for(0, words, kShardGrain, [&](std::uint64_t lo, std::uint64_t hi) {
    const auto [first, count] = shard_range(lo, hi);
    PatternBatch part = expected.slice(first, count);
    const std::lock_guard<std::mutex> lock(shard_mutex);
    shard_out.emplace(first, std::move(part));
  });

  const PlaneSweep plane1(gnor.product_plane());
  const PlaneSweep plane2(gnor.output_plane());
  PatternBatch products(gnor.num_products(), np);
  PatternBatch rows(gnor.num_outputs(), np);
  plane1.run(inputs, products);  // first touch of the lanes
  plane2.run(products, rows);

  const double bytes = sweep_bytes(gnor, words);
  std::vector<char> src(static_cast<std::size_t>(bytes / 2), 1);
  std::vector<char> dst(src.size(), 0);
  for (int r = 0; r < kBulkReps; ++r) {
    const auto id = static_cast<std::uint64_t>(r);
    ++tally.attempted;

    std::int64_t s = tracer.begin("framing.bulk", -1, id);
    ConnState state(ConnState::PayloadMode::kBuffered);
    constexpr std::size_t kChunk = 65536;
    for (std::size_t at = 0; at < frame.request.size(); at += kChunk) {
      state.append(frame.request.data() + at,
                   std::min(kChunk, frame.request.size() - at));
      if (state.advance() == ConnState::Step::kRequest) {
        break;
      }
    }
    const std::string payload = state.take_request_payload();
    state.finish_request(false);
    tracer.end(s);

    s = tracer.begin("eval.sweep", -1, id);
    const PatternBatch out = gnor.evaluate_batch(inputs);
    tracer.end(s);
    std::int64_t c = tracer.begin("lanes.plane1", s, id);
    plane1.run(inputs, products);
    tracer.end(c);
    c = tracer.begin("lanes.plane2", s, id);
    plane2.run(products, rows);
    tracer.end(c);
    for (int o = 0; o < gnor.num_outputs(); ++o) {
      if (gnor.buffer_inverted(o)) {
        rows.complement_lane(o);
      }
    }

    s = tracer.begin("shard.sweep", -1, id);
    const PatternBatch sharded = gnor.evaluate_batch(inputs, pool);
    tracer.end(s);
    c = tracer.begin("shard.copy", s, id);
    PatternBatch pasted(gnor.num_outputs(), np);
    pool.parallel_for(0, words, kShardGrain, [&](std::uint64_t lo, std::uint64_t hi) {
      const auto [first, count] = shard_range(lo, hi);
      const PatternBatch part = inputs.slice(first, count);
      pasted.paste(shard_out.at(first), first);
    });
    tracer.end(c);

    s = tracer.begin("memcpy.roofline", -1, id);
    std::memcpy(dst.data(), src.data(), src.size());
    tracer.end(s);

    const std::size_t payload_bytes =
        frame.request.size() - (frame.request.find('\n') + 1);
    if (payload.size() != payload_bytes || !(out == expected) ||
        !(sharded == expected) || !(pasted == expected) ||
        !(rows == expected)) {
      ++tally.failed;
    }
  }
}

/// espresso::minimize with a span around every phase call. It mirrors
/// the loop in espresso/espresso.cpp; the caller checks that the result
/// equals espresso::minimize's.
Cover minimize_traced(const Cover& onset, const Cover& dcset, Tracer& tracer,
                      std::int64_t parent, std::uint64_t id,
                      double& offset_cubes, double& loops) {
  Cover f = onset;
  f.sort_and_dedup();
  f.remove_single_cube_contained();
  if (f.empty()) {
    return f;
  }
  std::int64_t s = tracer.begin("load.offset", parent, id);
  const Cover off = ambit::espresso::offset(onset, dcset);
  tracer.end(s);
  offset_cubes += static_cast<double>(off.size());
  const auto phase = [&](const char* name, auto&& fn) {
    const std::int64_t span = tracer.begin(name, parent, id);
    f = fn();
    tracer.end(span);
  };
  phase("load.expand", [&] { return ambit::espresso::expand(f, off); });
  phase("load.irredundant", [&] { return ambit::espresso::irredundant(f, dcset); });
  Cover best = f;
  auto best_cost = ambit::espresso::cost_of(best);
  for (int loop = 0; loop < ambit::espresso::EspressoOptions{}.max_loops; ++loop) {
    phase("load.reduce", [&] { return ambit::espresso::reduce(f, dcset); });
    phase("load.expand", [&] { return ambit::espresso::expand(f, off); });
    phase("load.irredundant", [&] { return ambit::espresso::irredundant(f, dcset); });
    loops += 1;
    const auto cost = ambit::espresso::cost_of(f);
    if (!(cost < best_cost)) {
      break;
    }
    best = f;
    best_cost = cost;
  }
  best.sort_and_dedup();
  return best;
}

struct LoadCounts {
  double offset_cubes = 0;
  double loops = 0;
  double cubes_in = 0;
  double cubes_out = 0;
};

/// One LOAD round — every circuit, in order — phase by phase.
void replay_load_round(const Reference& ref, Tracer& tracer, Tally& tally,
                       LoadCounts& counts) {
  const std::int64_t round = tracer.begin("load.round", -1, 0);
  std::uint64_t id = 0;
  for (const Circuit& circuit : ref.circuits) {
    ++tally.attempted;
    const std::int64_t root = tracer.begin("load.circuit", round, id);
    std::int64_t s = tracer.begin("load.parse", root, id);
    const ambit::logic::PlaFile pla = ambit::logic::read_pla_file(circuit.path);
    tracer.end(s);
    s = tracer.begin("load.minimize", root, id);
    const Cover cover = minimize_traced(pla.onset, pla.dcset, tracer, s, id,
                                        counts.offset_cubes, counts.loops);
    tracer.end(s);
    s = tracer.begin("load.map", root, id);
    const auto gnor = ambit::core::GnorPla::map_cover(cover);
    tracer.end(s);
    tracer.end(root);
    counts.cubes_in += static_cast<double>(pla.onset.size());
    counts.cubes_out += static_cast<double>(cover.size());
    if (!(cover == circuit.minimized) ||
        gnor.num_products() != circuit.gnor.num_products()) {
      ++tally.failed;
    }
    ++id;
  }
  tracer.end(round);
}

/// Submit-to-start wait of one trivial pool task, recorded as a span.
void probe_submit_wait(ambit::ThreadPool& pool, Tracer& tracer,
                       const char* name, std::uint64_t id) {
  std::atomic<bool> started{false};
  Clock::time_point start;
  const auto submitted = Clock::now();
  pool.submit([&] {
    start = Clock::now();
    started.store(true, std::memory_order_release);
  });
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  tracer.add(name, submitted, start, -1, id);
}

}  // namespace

Metrics replay_layers(const Reference& ref, ambit::serve::Session& session,
                      Tracer& tracer, Tally& tally) {
  ambit::ThreadPool& pool = session.pool();
  replay_classify(ref, session, tracer, tally);
  replay_bulk(ref, pool, tracer, tally);

  for (int k = 0; k < kIdleWaitProbes; ++k) {
    probe_submit_wait(pool, tracer, "pool.submit_wait", static_cast<std::uint64_t>(k));
  }
  // The LOAD round runs on a pool worker, as a served LOAD does, while
  // this thread keeps probing the pool's submit wait.
  Tracer load_tracer;
  LoadCounts counts;
  Tally load_tally;
  std::atomic<bool> loading{true};
  pool.submit([&] {
    replay_load_round(ref, load_tracer, load_tally, counts);
    loading.store(false, std::memory_order_release);
  });
  for (std::uint64_t k = 0; loading.load(std::memory_order_acquire); ++k) {
    probe_submit_wait(pool, tracer, "pool.submit_wait_load", k);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  tracer.absorb(load_tracer);
  tally.add(load_tally);

  const ambit::core::GnorPla& gnor = ref.heavy().gnor;
  const BulkFrame& frame = ref.bulk.front();
  const double bytes = sweep_bytes(gnor, frame.inputs.words_per_lane());
  const double plane_us = med(tracer, "lanes.plane1") + med(tracer, "lanes.plane2");
  const double lanes_gbps = bytes / plane_us / 1e3;
  const double memcpy_gbps = bytes / med(tracer, "memcpy.roofline") / 1e3;
  const double request_us = med(tracer, "server.request");
  const double ms = 1e-3;
  return {
      {"server.request_us", request_us, "us"},
      {"server.self_us", med_self(tracer, "server.request"), "us"},
      {"framing.line_us", med(tracer, "framing.line"), "us"},
      {"framing.bulk_gbps",
       static_cast<double>(frame.request.size()) / med(tracer, "framing.bulk") / 1e3,
       "GB/s"},
      {"protocol.parse_us", med(tracer, "protocol.parse"), "us"},
      {"protocol.encode_us", med(tracer, "protocol.encode"), "us"},
      {"session.eval_us", med(tracer, "session.eval"), "us"},
      {"session.self_us", med_self(tracer, "session.eval"), "us"},
      {"eval.tiny_us", med(tracer, "eval.tiny"), "us"},
      {"pool.submit_wait_us", med(tracer, "pool.submit_wait"), "us"},
      {"pool.submit_wait_load_us", med(tracer, "pool.submit_wait_load"), "us"},
      {"shard.sweep_us", med(tracer, "shard.sweep"), "us"},
      {"shard.speedup", med(tracer, "eval.sweep") / med(tracer, "shard.sweep"), "x"},
      {"shard.copy_us", med(tracer, "shard.copy"), "us"},
      {"eval.sweep_us", med(tracer, "eval.sweep"), "us"},
      {"eval.self_us", med_self(tracer, "eval.sweep"), "us"},
      {"lanes.plane1_us", med(tracer, "lanes.plane1"), "us"},
      {"lanes.plane2_us", med(tracer, "lanes.plane2"), "us"},
      {"lanes.bytes_per_sweep", bytes, "B"},
      {"lanes.gbps", lanes_gbps, "GB/s"},
      {"memcpy.gbps", memcpy_gbps, "GB/s"},
      {"lanes.roofline_frac", lanes_gbps / memcpy_gbps, "ratio"},
      {"load.parse_ms", sum(tracer, "load.parse") * ms, "ms"},
      {"load.offset_ms", sum(tracer, "load.offset") * ms, "ms"},
      {"load.offset_cubes", counts.offset_cubes, "count"},
      {"load.expand_ms", sum(tracer, "load.expand") * ms, "ms"},
      {"load.irredundant_ms", sum(tracer, "load.irredundant") * ms, "ms"},
      {"load.reduce_ms", sum(tracer, "load.reduce") * ms, "ms"},
      {"load.minimize_ms", sum(tracer, "load.minimize") * ms, "ms"},
      {"load.loops", counts.loops, "count"},
      {"load.cubes_in", counts.cubes_in, "count"},
      {"load.cubes_out", counts.cubes_out, "count"},
      {"load.map_ms", sum(tracer, "load.map") * ms, "ms"},
  };
}

}  // namespace perfbench
