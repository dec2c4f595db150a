// Ablation A6b: throughput of the Q-network at the paper's architecture
// (Table 1: input 16,599 / hidden 135x135 / output 12, minibatch 32) and
// at the scaled preset's dimensions, across thread counts.

#include "bench/benchkit.hpp"

#include <memory>
#include <stdexcept>

#include "src/common/cpu_tier.hpp"
#include "src/nn/mlp.hpp"

using namespace dqndock;
using nn::Mlp;
using nn::Tensor;

namespace {

Tensor randomBatch(std::size_t rows, std::size_t cols, Rng& rng) {
  Tensor t(rows, cols);
  for (double& v : t.flat()) v = rng.gaussian();
  return t;
}

void runForward(benchmark::State& state, std::vector<std::size_t> dims, std::size_t batch,
                std::size_t threads) {
  Rng rng(1);
  std::unique_ptr<ThreadPool> pool = threads ? std::make_unique<ThreadPool>(threads) : nullptr;
  Mlp net(dims, rng, pool.get());
  Tensor x = randomBatch(batch, dims.front(), rng);
  Tensor y;
  for (auto _ : state) {
    net.predict(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(batch));
}

void runTrainStep(benchmark::State& state, std::vector<std::size_t> dims, std::size_t batch,
                  std::size_t threads) {
  Rng rng(2);
  std::unique_ptr<ThreadPool> pool = threads ? std::make_unique<ThreadPool>(threads) : nullptr;
  Mlp net(dims, rng, pool.get());
  Tensor x = randomBatch(batch, dims.front(), rng);
  Tensor g = randomBatch(batch, dims.back(), rng);
  for (auto _ : state) {
    net.zeroGrad();
    net.forward(x);
    net.backward(g);
    benchmark::DoNotOptimize(net.gradients()[0]->data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(batch));
}

// --- Static-prefix fold (paper 2BSM: 16,332 of 16,599 inputs constant) ----

constexpr std::size_t kPaperStaticPrefix = 16332;

std::vector<double> foldPrefix(std::size_t s, Rng& rng) {
  std::vector<double> prefix(s);
  for (double& v : prefix) v = rng.gaussian();
  return prefix;
}

/// Folded forward fed dynamic-width rows — exactly what the trainer's
/// collect phase and the serve batcher materialise once the fold is on.
void runForwardFolded(benchmark::State& state, std::vector<std::size_t> dims, std::size_t batch,
                      std::size_t threads) {
  Rng rng(1);
  std::unique_ptr<ThreadPool> pool = threads ? std::make_unique<ThreadPool>(threads) : nullptr;
  Mlp net(dims, rng, pool.get());
  if (!net.configureStaticPrefix(foldPrefix(kPaperStaticPrefix, rng))) {
    throw std::runtime_error("configureStaticPrefix rejected the paper prefix");
  }
  Tensor xd = randomBatch(batch, net.dynamicInputDim(), rng);
  Tensor y;
  net.predict(xd, y);  // fold once outside the timed loop
  for (auto _ : state) {
    net.predict(xd, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(batch));
}

/// Folded forward+backward: the packed dynamic gradient plus the rank-1
/// bias-grad coefficient replace the full-width weight-grad GEMM.
void runTrainStepFolded(benchmark::State& state, std::vector<std::size_t> dims,
                        std::size_t batch, std::size_t threads) {
  Rng rng(2);
  std::unique_ptr<ThreadPool> pool = threads ? std::make_unique<ThreadPool>(threads) : nullptr;
  Mlp net(dims, rng, pool.get());
  if (!net.configureStaticPrefix(foldPrefix(kPaperStaticPrefix, rng))) {
    throw std::runtime_error("configureStaticPrefix rejected the paper prefix");
  }
  Tensor xd = randomBatch(batch, net.dynamicInputDim(), rng);
  Tensor g = randomBatch(batch, dims.back(), rng);
  for (auto _ : state) {
    net.zeroGrad();
    net.forward(xd);
    net.backward(g);
    benchmark::DoNotOptimize(net.gradients()[0]->data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(batch));
}

}  // namespace

// Paper architecture: 16,599 -> 135 -> 135 -> 12.
static void BM_PaperNetForward(benchmark::State& state) {
  runForward(state, {16599, 135, 135, 12}, 32, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_PaperNetForward)->Arg(0)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

static void BM_PaperNetTrainStep(benchmark::State& state) {
  runTrainStep(state, {16599, 135, 135, 12}, 32, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_PaperNetTrainStep)->Arg(0)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Scaled preset: ligand-only state of the tiny scenario (36 -> 64 -> 64 -> 12).
static void BM_ScaledNetForward(benchmark::State& state) {
  runForward(state, {36, 64, 64, 12}, 32, 0);
}
BENCHMARK(BM_ScaledNetForward);

static void BM_ScaledNetTrainStep(benchmark::State& state) {
  runTrainStep(state, {36, 64, 64, 12}, 32, 0);
}
BENCHMARK(BM_ScaledNetTrainStep);

// Single-state inference: the per-env-step action-selection cost.
static void BM_PaperNetSingleInference(benchmark::State& state) {
  runForward(state, {16599, 135, 135, 12}, 1, 0);
}
BENCHMARK(BM_PaperNetSingleInference);

// Folded counterparts (DQNDOCK_FOLD_STATIC default-on path): the input
// layer runs as a 267-column GEMM + cached folded bias.
static void BM_PaperNetForwardFolded(benchmark::State& state) {
  runForwardFolded(state, {16599, 135, 135, 12}, 32, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_PaperNetForwardFolded)->Arg(0)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

static void BM_PaperNetTrainStepFolded(benchmark::State& state) {
  runTrainStepFolded(state, {16599, 135, 135, 12}, 32, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_PaperNetTrainStepFolded)->Arg(0)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

static void BM_PaperNetSingleInferenceFolded(benchmark::State& state) {
  runForwardFolded(state, {16599, 135, 135, 12}, 1, 0);
}
BENCHMARK(BM_PaperNetSingleInferenceFolded);

/// Custom main: stamp the harness build type, assert state, and the GEMM
/// kernel tier the runs dispatch to, so scripts/bench_nn.py can refuse
/// debug harnesses and label BENCH_nn.json rows with the tier that
/// actually produced them.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
#ifdef DQNDOCK_BENCH_BUILD_TYPE
  benchmark::AddCustomContext("dqndock_bench_build_type", DQNDOCK_BENCH_BUILD_TYPE);
#endif
#ifdef NDEBUG
  benchmark::AddCustomContext("dqndock_bench_asserts", "off");
#else
  benchmark::AddCustomContext("dqndock_bench_asserts", "on");
#endif
  // The tier Mlp::forward/backward will run (CPUID probe or the
  // DQNDOCK_FORCE_KERNEL override); fails loudly here if a forced tier
  // is unavailable rather than publishing mislabelled rows.
  benchmark::AddCustomContext("dqndock_gemm_kernel_tier", cpuTierName(activeCpuTier()));
  // The folded benchmarks configure the fold explicitly, but the stamp
  // records what the DQNDOCK_FOLD_STATIC gate would give the trainers.
  benchmark::AddCustomContext("dqndock_fold_static",
                              nn::foldStaticEnabled() ? "on" : "off");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
