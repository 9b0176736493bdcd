#include "reference.h"

#include <cstring>
#include <random>

#include "espresso/espresso.h"
#include "logic/pla_io.h"
#include "logic/synth_bench.h"
#include "serve/protocol.h"

namespace perfbench {

namespace {

using ambit::logic::PatternBatch;

Circuit load_circuit(const std::string& name, const std::string& path) {
  Circuit c;
  c.name = name;
  c.path = path;
  const ambit::logic::PlaFile pla = ambit::logic::read_pla_file(path);
  c.minimized = ambit::espresso::minimize(pla.onset, pla.dcset).cover;
  c.gnor = ambit::core::GnorPla::map_cover(c.minimized);
  c.load_request = "LOAD " + name + " " + path + "\n";
  c.load_prefix = "OK loaded " + name + ": " +
                  std::to_string(c.gnor.num_inputs()) + " inputs, " +
                  std::to_string(c.gnor.num_outputs()) + " outputs, " +
                  std::to_string(c.gnor.num_products()) + " products, " +
                  std::to_string(c.gnor.cell_count()) + " cells, ";
  return c;
}

std::vector<ClassifyRequest> make_classify(const Circuit& heavy,
                                           std::mt19937_64& rng) {
  constexpr int kPool = 1024;
  const int width = heavy.gnor.num_inputs();
  std::vector<ClassifyRequest> pool(kPool);
  for (ClassifyRequest& req : pool) {
    std::vector<std::vector<bool>> patterns;
    req.line = "EVAL " + heavy.name;
    for (int p = 0; p < kClassifyPatterns; ++p) {
      std::vector<bool> bits(static_cast<std::size_t>(width));
      const std::uint64_t draw = rng();
      for (int i = 0; i < width; ++i) {
        bits[static_cast<std::size_t>(i)] = ((draw >> i) & 1) != 0;
      }
      req.line += ' ';
      req.line += ambit::serve::hex_encode(bits);
      patterns.push_back(std::move(bits));
    }
    req.line += "\n";
    const PatternBatch out =
        heavy.gnor.evaluate_batch(PatternBatch::from_patterns(patterns));
    req.expected = "OK";
    for (std::uint64_t p = 0; p < out.num_patterns(); ++p) {
      req.expected += ' ';
      req.expected += ambit::serve::hex_encode(out.pattern(p));
    }
  }
  return pool;
}

BulkFrame make_bulk(const Circuit& heavy, std::mt19937_64& rng,
                    ambit::ThreadPool& pool) {
  BulkFrame frame;
  PatternBatch inputs(heavy.gnor.num_inputs(), kBulkPatterns);
  std::vector<std::uint64_t> words(inputs.total_words());
  for (std::uint64_t& w : words) {
    w = rng();
  }
  inputs.load_words(words.data(), words.size());
  const std::string header = "EVALB " + heavy.name + " " +
                             std::to_string(kBulkPatterns) + " " +
                             std::to_string(words.size()) + "\n";
  frame.request = header;
  frame.request.append(reinterpret_cast<const char*>(words.data()),
                       words.size() * sizeof(std::uint64_t));
  const PatternBatch out = heavy.gnor.evaluate_batch(inputs, pool);
  frame.expected_words.resize(out.total_words());
  out.store_words(frame.expected_words.data(), frame.expected_words.size());
  frame.expected_header = ambit::serve::evalb_response_header(
      kBulkPatterns, frame.expected_words.size());
  frame.inputs = std::move(inputs);
  return frame;
}

}  // namespace

Reference build_reference(const std::string& data_dir,
                          const std::string& out_dir, std::uint64_t seed,
                          int bulk_frames, ambit::ThreadPool& pool) {
  // `heavy`: the 16-input x 32-output x 224-cube generated cover that
  // Espresso minimizes to 223 products on LOAD. Only the request
  // patterns depend on the seed; the circuits are fixed.
  const ambit::logic::SynthSpec spec{.num_inputs = 16,
                                     .num_outputs = 32,
                                     .num_cubes = 224,
                                     .literals_per_cube = 5};
  const std::string heavy_path = out_dir + "/heavy.pla";
  ambit::logic::write_pla_file(
      heavy_path,
      ambit::logic::make_pla(ambit::logic::generate_cover(spec, 11), "heavy"));

  Reference ref;
  ref.circuits.push_back(load_circuit("heavy", heavy_path));
  for (const char* name : {"t2", "apla", "max46"}) {
    ref.circuits.push_back(
        load_circuit(name, data_dir + "/" + name + ".pla"));
  }
  std::mt19937_64 rng(seed);
  ref.classify = make_classify(ref.heavy(), rng);
  for (int f = 0; f < bulk_frames; ++f) {
    ref.bulk.push_back(make_bulk(ref.heavy(), rng, pool));
  }
  return ref;
}

bool check_classify(const ClassifyRequest& req, const std::string& response) {
  return response == req.expected;
}

bool check_load(const Circuit& circuit, const std::string& response) {
  return response.size() > circuit.load_prefix.size() + 3 &&
         response.compare(0, circuit.load_prefix.size(),
                          circuit.load_prefix) == 0 &&
         response.compare(response.size() - 3, 3, " ms") == 0;
}

bool check_bulk(const BulkFrame& frame, const std::string& header,
                const std::vector<std::uint64_t>& words) {
  return header == frame.expected_header &&
         words.size() == frame.expected_words.size() &&
         std::memcmp(words.data(), frame.expected_words.data(),
                     words.size() * sizeof(std::uint64_t)) == 0;
}

bool corruption_gate_selftest(const Reference& ref) {
  bool ok = true;
  for (const Circuit& c : ref.circuits) {
    const std::string good = c.load_prefix + "12.5 ms";
    std::string bad = good;
    bad[bad.find(" products") - 1] ^= 1;  // one digit of the product count
    ok = ok && check_load(c, good) && !check_load(c, bad);
  }
  for (const ClassifyRequest& req : ref.classify) {
    std::string bad = req.expected;
    bad.back() = bad.back() == '0' ? '1' : '0';  // one output bit
    ok = ok && check_classify(req, req.expected) && !check_classify(req, bad);
  }
  for (const BulkFrame& frame : ref.bulk) {
    std::vector<std::uint64_t> words = frame.expected_words;
    ok = ok && check_bulk(frame, frame.expected_header, words);
    words[words.size() / 2] ^= std::uint64_t{1} << 17;
    ok = ok && !check_bulk(frame, frame.expected_header, words);
  }
  return ok;
}

}  // namespace perfbench
