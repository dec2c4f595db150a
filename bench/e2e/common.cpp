#include "bench/e2e/common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

#include <sys/resource.h>

#include "src/metadock/scoring_kernels.hpp"
#include "src/nn/gemm_kernels.hpp"
#include "src/nn/mlp.hpp"

namespace e2e {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finaliser over (seed, stream): independent streams per
  // input kind without any coupling to how many values another drew.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::size_t harnessThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

namespace {
std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}
}  // namespace

void stampHost(Result& result) {
  result.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  result.note("pool_threads", std::to_string(harnessThreads()));
  result.note("cpu_model", cpuModel());
  result.note("scoring_kernel_tier",
              dqndock::metadock::kernelTierName(dqndock::metadock::resolveKernelTier()));
  result.note("gemm_kernel_tier", dqndock::nn::gemmTierName(dqndock::nn::resolveGemmTier()));
  result.note("fold_static", dqndock::nn::foldStaticEnabled() ? "on" : "off");
  result.note("build_type", DQNDOCK_BENCH_BUILD_TYPE);
#ifdef NDEBUG
  result.note("asserts", "off");
#else
  result.note("asserts", "on");
#endif
}

dqndock::core::DqnDockingConfig paperTrainingConfig() {
  auto cfg = dqndock::core::DqnDockingConfig::paper2bsm();
  cfg.env.maxSteps = 50;
  cfg.trainer.epsilon = dqndock::rl::EpsilonSchedule(0.05, 0.05, 0.0, 0);
  cfg.trainer.learningStart = cfg.agent.batchSize;
  // Raw-state replay at the folded width (267 reals per state); 4096
  // slots hold a whole measured window without wrapping far.
  cfg.replayCapacity = 4096;
  cfg.compactReplay = false;
  return cfg;
}

}  // namespace e2e
