// Shared helpers of the perfbench program (see perfbench/DESIGN.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// `--key value` command-line pairs after the mode word.
class Args {
 public:
  Args(int argc, char** argv, int first);
  bool has(const std::string& key) const { return values_.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback = "") const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  /// `--seed`: any unsigned 64-bit value.
  std::uint64_t get_seed(std::uint64_t fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Seconds on the monotonic clock; the same clock as Python's
/// time.monotonic(), so run.py can time process set-up against it.
inline double mono_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64 of (seed, stream): independent, reproducible input streams
/// derived from the one workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

void write_file(const std::string& path, const std::string& text);

/// table1_heuristic and ilp_exact.
int run_batch(const Args& args);
/// server_mix generator: warm-up, one open-loop phase, correctness checks.
int run_load(const Args& args);

}  // namespace perfbench
