#pragma once

// Shared plumbing of the end-to-end benchmark: run options, the result
// record every workload fills, percentiles, the host/build stamp and the
// paper-2BSM configuration the workloads start from.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/core/config.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window
  bool traced = false;
  /// ~1/20 scale: schema and correctness gates only, numbers meaningless.
  bool smoke = false;
  std::string traceOut;  ///< span dump path (traced runs); empty = none
  std::string workDir = ".";  ///< generated files (ligand libraries)
};

/// What one workload run reports. main() prints it as one JSON object.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> gates;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void gate(std::string name, bool ok) { gates.emplace_back(std::move(name), ok); }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
};

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Stream `stream` of the workload seed: every generated input (the
/// exploration stream, request seeds, arrival times, the ligand library)
/// comes from one of these, so the same --seed gives the same inputs.
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/// Peak resident set of this process so far, MB.
double peakRssMb();

/// ThreadPool size the harness pins: min(nproc, 4).
std::size_t harnessThreads();

/// Host, kernel tier, fold and build stamp (stamped into every result).
void stampHost(Result& result);

/// Build `makeOnce()` `repeats` times, timing each, and keep the last;
/// returns the median build time. Set-up is reported as its own metric
/// so work moved out of the measured window shows.
template <class T, class Make>
double timedSetup(std::size_t repeats, const Make& makeOnce, T& keep) {
  std::vector<double> times;
  for (std::size_t i = 0; i < repeats; ++i) {
    keep = T{};  // tear the previous instance down outside the timing
    const auto t0 = Clock::now();
    keep = makeOnce();
    times.push_back(secondsBetween(t0, Clock::now()));
  }
  return median(times);
}

/// Paper-2BSM with the Table 1 network (16,599 -> 135 -> 135 -> 12,
/// RMSprop 2.5e-4, batch 32, C = 1000, gamma 0.99), the fold as the
/// DQNDOCK_FOLD_STATIC gate resolves it, constant epsilon at the
/// Table 1 floor 0.05, episodes capped at 50 steps and a replay ring
/// small enough to stay cache- and memory-friendly. The trainer seed
/// stays the paper preset's (2018): it fixes the initial weights, and
/// with them how often the policy ends an episode early; workloads draw
/// their exploration stream from the workload seed instead.
dqndock::core::DqnDockingConfig paperTrainingConfig();

/// Set-up repeats per run (median reported).
inline constexpr std::size_t kSetupRepeats = 9;

}  // namespace e2e
