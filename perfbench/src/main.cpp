// perfbench: the compiled half of the end-to-end benchmark.
//
//   perfbench batch --workload table1_heuristic|ilp_exact --seed N --seconds S
//                   --trace 0|1 --out RAW.json [--trace-out TRACE.json] [--setup-only 1]
//   perfbench load  --port P --seed N --out RAW.json
//                   (--warm 1 | --phase K --rate R --seconds S --conns C [--check 1])
//   perfbench info
//
// Each mode writes raw samples (times, counts, check outcomes) as JSON;
// perfbench/run.py turns them into the reported metrics.
#include <fstream>
#include <iostream>

#include "perfbench.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace perfbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw fsyn::Error("expected --key, got '" + key + "'");
    values_[key.substr(2)] = argv[i + 1];
  }
}

std::string Args::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& key, std::int64_t fallback) const {
  return has(key) ? std::stoll(get(key)) : fallback;
}

double Args::get_double(const std::string& key, double fallback) const {
  return has(key) ? std::stod(get(key)) : fallback;
}

std::uint64_t Args::get_seed(std::uint64_t fallback) const {
  if (!has("seed")) return fallback;
  const std::string text = get("seed");
  if (text.empty() || text[0] == '-') throw fsyn::Error("--seed must be unsigned: " + text);
  return std::stoull(text);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw fsyn::Error("cannot write " + path);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench batch|load|info --key value ...\n";
    return 2;
  }
  const std::string mode = argv[1];
  try {
    const perfbench::Args args(argc, argv, 2);
    if (mode == "batch") return perfbench::run_batch(args);
    if (mode == "load") return perfbench::run_load(args);
    if (mode == "info") {
      fsyn::JsonWriter w;
      w.begin_object();
      w.key("compiler").value(PERFBENCH_COMPILER);
      w.key("build_type").value(PERFBENCH_BUILD_TYPE);
      w.end_object();
      std::cout << w.str() << '\n';
      return 0;
    }
    std::cerr << "unknown mode '" << mode << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
