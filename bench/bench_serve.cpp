// Serving-layer benchmark: how much throughput does micro-batching the
// Q-network forward pass buy over single-request inference? N concurrent
// clients push 1-row requests through the InferenceBatcher, which
// coalesces them into GEMM-friendly batches; the baseline is the same
// request stream served one row at a time. Run with the paper's network
// (16,599 -> 135 -> 135 -> 12) by default:
//
//   ./bench_serve [--dim=16599] [--hidden=135,135] [--actions=12]
//                 [--rows=2048] [--batch=32] [--flush-us=200]
//
// Prints rows/s for the single-row baseline and for client counts
// 1..batch, plus per-request latency percentiles — the speedup column is
// the number the serving layer exists for.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/common/cli.hpp"
#include "src/common/rng.hpp"
#include "src/common/stopwatch.hpp"
#include "src/rl/qnetwork.hpp"
#include "src/serve/inference_batcher.hpp"

using namespace dqndock;

namespace {

std::vector<double> makeState(std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> s(dim);
  for (double& v : s) v = rng.uniform(-1.0, 1.0);
  return s;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

int run(const CliArgs& args) {
  const std::size_t dim = static_cast<std::size_t>(args.getInt("dim", 16599));
  const std::vector<std::size_t> hidden =
      parseSizeList(args.getString("hidden", "135,135"), "hidden");
  const int actions = static_cast<int>(args.getInt("actions", 12));
  const std::size_t rows = static_cast<std::size_t>(args.getInt("rows", 2048));
  const std::size_t maxBatch = static_cast<std::size_t>(args.getInt("batch", 32));
  const long flushUs = args.getInt("flush-us", 200);

  Rng rng(2018);
  rl::MlpQNetwork net(dim, hidden, actions, rng);
  std::printf("bench_serve: %zu", dim);
  for (std::size_t h : hidden) std::printf(" -> %zu", h);
  std::printf(" -> %d, %zu rows per run\n\n", actions, rows);

  // Baseline: the same rows served one forward pass per request.
  double singleRowsPerSec = 0.0;
  {
    nn::Tensor in(1, dim), out;
    Stopwatch clock;
    for (std::size_t i = 0; i < rows; ++i) {
      const std::vector<double> s = makeState(dim, i);
      std::copy(s.begin(), s.end(), in.row(0).begin());
      net.predict(in, out);
    }
    singleRowsPerSec = static_cast<double>(rows) / clock.seconds();
    std::printf("%-28s %12.0f rows/s  (speedup 1.00x)\n", "single-request baseline",
                singleRowsPerSec);
  }

  // Micro-batched: `clients` threads feed the batcher concurrently.
  std::printf("%-28s %12s          %8s %8s %8s\n", "", "", "p50", "p99", "max");
  for (std::size_t clients : {1ul, 4ul, 8ul, 16ul, maxBatch}) {
    serve::BatcherOptions opts;
    opts.maxBatch = maxBatch;
    opts.flushDeadline = std::chrono::microseconds(flushUs);
    serve::InferenceBatcher batcher(
        [&](const nn::Tensor& states, nn::Tensor& q) { net.predict(states, q); }, dim, actions,
        opts);

    const std::size_t perClient = rows / clients;
    std::vector<std::vector<double>> latencies(clients);
    Stopwatch clock;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        latencies[c].reserve(perClient);
        for (std::size_t i = 0; i < perClient; ++i) {
          const std::vector<double> s = makeState(dim, c * perClient + i);
          const auto t0 = std::chrono::steady_clock::now();
          batcher.infer(s);
          latencies[c].push_back(
              std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                  .count());
        }
      });
    }
    for (auto& t : threads) t.join();
    const double seconds = clock.seconds();
    batcher.shutdown();

    std::vector<double> all;
    for (const auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
    std::sort(all.begin(), all.end());
    const double rowsPerSec = static_cast<double>(all.size()) / seconds;
    const serve::BatcherStats stats = batcher.stats();
    char label[64];
    std::snprintf(label, sizeof label, "batched, %2zu clients", clients);
    std::printf("%-28s %12.0f rows/s  (speedup %.2fx) %7.2fms %7.2fms %7.2fms  mean batch %.1f\n",
                label, rowsPerSec, rowsPerSec / singleRowsPerSec, percentile(all, 0.50),
                percentile(all, 0.99), all.empty() ? 0.0 : all.back(), stats.meanBatchRows());
  }

  std::printf("\nmicro-batching turns %zu concurrent 1-row requests into one GEMM of up to\n"
              "%zu rows — the speedup column is the serving layer's reason to exist.\n",
              maxBatch, maxBatch);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Malformed flag values ("--hidden=135,abc") print usage and exit 1 —
  // never an uncaught-exception abort.
  try {
    return run(CliArgs(argc, argv));
  } catch (const CliError& e) {
    std::fprintf(stderr, "bench_serve: %s\n", e.what());
    std::fprintf(stderr,
                 "usage: bench_serve [--dim=16599] [--hidden=135,135] [--actions=12]\n"
                 "                   [--rows=2048] [--batch=32] [--flush-us=200]\n");
    return 1;
  }
}
