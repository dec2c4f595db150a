// Static-prefix factorization suite: folded forward/backward must stay
// within 1e-12 relative of the unfolded network, be bit-deterministic
// across thread pools and runs, and the fold cache must be invalidated
// by every weight-mutation path in the codebase (optimizer step, target
// sync, copyWeightsFrom, checkpoint restore, registry hot-swap). The
// optimizer's fused row dots must leave the folded bias bitwise the
// serial refold's without a W_s sweep. The DQNDOCK_FOLD_STATIC gate
// grammar is pinned here too.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/nn/mlp.hpp"
#include "src/nn/optimizer.hpp"
#include "src/rl/checkpoint.hpp"
#include "src/rl/dqn_agent.hpp"
#include "src/rl/qnetwork.hpp"
#include "src/rl/replay_buffer.hpp"
#include "src/serve/model_registry.hpp"

namespace dqndock {
namespace {

constexpr double kTol = 1e-12;

double maxRelDiff(const nn::Tensor& a, const nn::Tensor& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double denom = std::max({std::abs(a.data()[i]), std::abs(b.data()[i]), 1.0});
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]) / denom);
  }
  return worst;
}

std::vector<double> makePrefix(std::size_t s, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> prefix(s);
  for (double& v : prefix) v = rng.uniform() * 2.0 - 1.0;
  return prefix;
}

/// Batch whose leading prefix.size() columns hold the configured static
/// values — the contract every folded caller upholds.
nn::Tensor makeStates(std::size_t batch, std::size_t dim, const std::vector<double>& prefix,
                      std::uint64_t seed) {
  Rng rng(seed);
  nn::Tensor x(batch, dim);
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      x(r, c) = c < prefix.size() ? prefix[c] : rng.uniform() * 2.0 - 1.0;
    }
  }
  return x;
}

nn::Tensor dynamicSuffix(const nn::Tensor& x, std::size_t s) {
  nn::Tensor xd(x.rows(), x.cols() - s);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = s; c < x.cols(); ++c) xd(r, c - s) = x(r, c);
  }
  return xd;
}

/// Identically-initialised pair: twin(0) folded, twin(1) plain.
struct MlpTwins {
  MlpTwins(std::vector<std::size_t> dims, const std::vector<double>& prefix,
           ThreadPool* pool = nullptr)
      : folded(makeNet(dims, pool)), plain(makeNet(dims, pool)) {
    EXPECT_TRUE(folded.configureStaticPrefix(prefix));
  }
  static nn::Mlp makeNet(const std::vector<std::size_t>& dims, ThreadPool* pool) {
    Rng rng(2024);
    return nn::Mlp(dims, rng, pool);
  }
  nn::Mlp folded;
  nn::Mlp plain;
};

TEST(FoldStaticGate, ParsesEnvValues) {
  const char* old = std::getenv("DQNDOCK_FOLD_STATIC");
  const std::string saved = old != nullptr ? old : "";
  const bool hadOld = old != nullptr;

  ::unsetenv("DQNDOCK_FOLD_STATIC");
  EXPECT_TRUE(nn::foldStaticEnabled());  // default on
  for (const char* on : {"", "on", "1", "true"}) {
    ::setenv("DQNDOCK_FOLD_STATIC", on, 1);
    EXPECT_TRUE(nn::foldStaticEnabled()) << "value: '" << on << "'";
  }
  for (const char* off : {"off", "0", "false"}) {
    ::setenv("DQNDOCK_FOLD_STATIC", off, 1);
    EXPECT_FALSE(nn::foldStaticEnabled()) << "value: '" << off << "'";
  }
  ::setenv("DQNDOCK_FOLD_STATIC", "sideways", 1);
  EXPECT_THROW(nn::foldStaticEnabled(), std::invalid_argument);

  if (hadOld) {
    ::setenv("DQNDOCK_FOLD_STATIC", saved.c_str(), 1);
  } else {
    ::unsetenv("DQNDOCK_FOLD_STATIC");
  }
}

TEST(FoldStatic, RejectsDegeneratePrefixes) {
  Rng rng(5);
  nn::Mlp net({10, 8, 3}, rng);
  EXPECT_FALSE(net.configureStaticPrefix({}));
  EXPECT_FALSE(net.configureStaticPrefix(std::vector<double>(10, 0.5)));  // whole input
  EXPECT_FALSE(net.configureStaticPrefix(std::vector<double>(11, 0.5)));
  EXPECT_FALSE(net.foldActive());
  EXPECT_TRUE(net.configureStaticPrefix(std::vector<double>(6, 0.5)));
  EXPECT_TRUE(net.foldActive());
  EXPECT_EQ(net.dynamicInputDim(), 4u);
}

TEST(FoldStatic, FoldedRejectsWrongInputWidth) {
  const auto prefix = makePrefix(28, 11);
  MlpTwins twins({40, 16, 16, 5}, prefix);
  nn::Tensor bad(2, 33);  // neither inputDim nor dynamicInputDim
  nn::Tensor y;
  EXPECT_THROW(twins.folded.predict(bad, y), std::invalid_argument);
  EXPECT_THROW(twins.folded.forward(bad), std::invalid_argument);
}

TEST(FoldStatic, FoldedMatchesUnfoldedWithinTolerance) {
  const auto prefix = makePrefix(28, 11);
  MlpTwins twins({40, 16, 16, 5}, prefix);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
    const nn::Tensor x = makeStates(batch, 40, prefix, 100 + batch);
    nn::Tensor yFolded, yPlain;
    twins.folded.predict(x, yFolded);
    twins.plain.predict(x, yPlain);
    EXPECT_LE(maxRelDiff(yFolded, yPlain), kTol) << "batch " << batch;

    // Dynamic-width input takes the identical GEMM on the identical
    // packed rows -> bitwise equal to the full-width call.
    const nn::Tensor xd = dynamicSuffix(x, prefix.size());
    nn::Tensor yDyn;
    twins.folded.predict(xd, yDyn);
    ASSERT_EQ(yDyn.size(), yFolded.size());
    for (std::size_t i = 0; i < yDyn.size(); ++i) {
      EXPECT_EQ(yDyn.data()[i], yFolded.data()[i]);
    }
  }
}

TEST(FoldStatic, FoldedMatchesUnfoldedAtPaperDims) {
  // Table 1: 16,599 inputs of which 16,332 are the frozen receptor block.
  const std::size_t kIn = 16599, kStatic = 16332;
  const auto prefix = makePrefix(kStatic, 3);
  MlpTwins twins({kIn, 135, 135, 7}, prefix);
  const nn::Tensor x = makeStates(32, kIn, prefix, 17);
  nn::Tensor yFolded, yPlain;
  twins.folded.predict(x, yFolded);
  twins.plain.predict(x, yPlain);
  EXPECT_LE(maxRelDiff(yFolded, yPlain), kTol);
}

TEST(FoldStatic, FoldedPredictBitDeterministicAcrossPoolsAndRuns) {
  const std::size_t kIn = 600, kStatic = 480;
  const auto prefix = makePrefix(kStatic, 23);
  const nn::Tensor x = makeStates(16, kIn, prefix, 29);

  // 13 input-layer rows is not a whole number of refold passes, so the
  // leftover rows take the one-row tail.
  for (const std::size_t width : {std::size_t{64}, std::size_t{13}}) {
    std::vector<double> reference;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      ThreadPool pool(threads);
      Rng rng(2024);
      nn::Mlp net({kIn, width, 64, 6}, rng, &pool);
      ASSERT_TRUE(net.configureStaticPrefix(prefix));
      for (int run = 0; run < 2; ++run) {
        nn::Tensor y;
        net.predict(x, y);
        if (reference.empty()) {
          reference.assign(y.data(), y.data() + y.size());
          continue;
        }
        ASSERT_EQ(y.size(), reference.size());
        for (std::size_t i = 0; i < y.size(); ++i) {
          EXPECT_EQ(y.data()[i], reference[i])
              << "width " << width << " threads " << threads << " run " << run;
        }
      }

      // The folded bias is bitwise the serial one-row-at-a-time dot.
      const nn::DenseLayer& input = net.inputLayer();
      const nn::Tensor& c = input.foldedBias();
      ASSERT_EQ(c.cols(), width);
      for (std::size_t r = 0; r < width; ++r) {
        double acc = 0.0;
        for (std::size_t j = 0; j < kStatic; ++j) acc += input.weights()(r, j) * prefix[j];
        EXPECT_EQ(c(0, r), acc + input.bias()(0, r)) << "width " << width << " row " << r;
      }
    }
  }
}

// --- Cache invalidation ---------------------------------------------------

TEST(FoldStaticInvalidation, DirectWeightWritesRefoldExactlyOncePerVersion) {
  const auto prefix = makePrefix(28, 11);
  MlpTwins twins({40, 16, 5}, prefix);
  const nn::Tensor x = makeStates(4, 40, prefix, 41);
  nn::Tensor yFolded, yPlain;

  twins.folded.predict(x, yFolded);
  const std::uint64_t foldsAfterFirst = twins.folded.inputLayer().foldCount();
  EXPECT_EQ(foldsAfterFirst, 1u);
  twins.folded.predict(x, yFolded);
  EXPECT_EQ(twins.folded.inputLayer().foldCount(), 1u) << "refolded without a weight change";

  // Stale-cache canary: mutate a STATIC column (only reachable through
  // the folded bias), a dynamic column, and the bias, each through the
  // non-const accessors every mutation path in the codebase uses.
  const std::uint64_t versionBefore = twins.folded.inputLayer().weightVersion();
  twins.folded.layers()[0].weights()(3, 5) += 0.25;    // static column
  twins.folded.layers()[0].weights()(2, 35) -= 0.125;  // dynamic column
  twins.folded.layers()[0].bias()(0, 1) += 0.5;
  EXPECT_GT(twins.folded.inputLayer().weightVersion(), versionBefore);
  twins.plain.layers()[0].weights()(3, 5) += 0.25;
  twins.plain.layers()[0].weights()(2, 35) -= 0.125;
  twins.plain.layers()[0].bias()(0, 1) += 0.5;

  twins.folded.predict(x, yFolded);
  twins.plain.predict(x, yPlain);
  EXPECT_LE(maxRelDiff(yFolded, yPlain), kTol) << "fold cache served stale weights";
  EXPECT_EQ(twins.folded.inputLayer().foldCount(), 2u);
}

TEST(FoldStaticInvalidation, CopyWeightsFromRefolds) {
  const auto prefix = makePrefix(28, 11);
  ThreadPool pool(2);
  Rng rngA(1), rngB(2);
  nn::Mlp a({40, 16, 5}, rngA, &pool);
  nn::Mlp b({40, 16, 5}, rngB, &pool);
  ASSERT_TRUE(a.configureStaticPrefix(prefix));
  ASSERT_TRUE(b.configureStaticPrefix(prefix));

  const nn::Tensor x = makeStates(4, 40, prefix, 43);
  nn::Tensor ya, yb;
  b.predict(x, yb);  // prime b's fold cache with its own weights
  a.predict(x, ya);
  ASSERT_GT(maxRelDiff(ya, yb), kTol) << "nets started identical; test is vacuous";

  b.copyWeightsFrom(a);  // the target-sync path
  b.predict(x, yb);
  // Same weights + same fold configuration -> the refold reproduces a's
  // folded bias bitwise.
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya.data()[i], yb.data()[i]);
}

TEST(FoldStaticInvalidation, OptimizerStepMatchesDenseUpdate) {
  const auto prefix = makePrefix(28, 11);
  const nn::Tensor x = makeStates(8, 40, prefix, 47);

  for (const std::string kind : {"sgd", "rmsprop", "adam"}) {
    MlpTwins twins({40, 16, 5}, prefix);
    auto optFolded = nn::makeOptimizer(kind, 0.01);
    auto optPlain = nn::makeOptimizer(kind, 0.01);

    for (int step = 0; step < 3; ++step) {
      // dLoss/dY = Y (pulls every output toward zero; arbitrary but
      // shared, so both twins see gradients from their own forward).
      const nn::Tensor& yf = twins.folded.forward(x);
      nn::Tensor dy = yf;
      twins.folded.zeroGrad();
      twins.folded.backward(dy);
      const auto factored = twins.folded.factoredGrad();
      ASSERT_TRUE(factored.has_value());
      EXPECT_EQ(factored->pool, nullptr);
      optFolded->step(twins.folded.parameters(), twins.folded.gradients(), &*factored);

      const nn::Tensor& yp = twins.plain.forward(x);
      nn::Tensor dyp = yp;
      twins.plain.zeroGrad();
      twins.plain.backward(dyp);
      optPlain->step(twins.plain.parameters(), twins.plain.gradients());
    }
    auto pf = twins.folded.parameters();
    auto pp = twins.plain.parameters();
    ASSERT_EQ(pf.size(), pp.size());
    for (std::size_t i = 0; i < pf.size(); ++i) {
      EXPECT_LE(maxRelDiff(*pf[i], *pp[i]), kTol) << kind << " param " << i;
    }
    // The folded twin keeps predicting with its post-step weights.
    const nn::Tensor probe = makeStates(4, 40, prefix, 53);
    nn::Tensor qf, qp;
    twins.folded.predict(probe, qf);
    twins.plain.predict(probe, qp);
    EXPECT_LE(maxRelDiff(qf, qp), kTol) << kind;
  }

  // Row fan-out: the factored update split over pools of 1, 3 and 8
  // threads lands on the no-pool parameters bit for bit. The input layer
  // is wide enough to split into every part a pool offers, and has fewer
  // rows (6) than the 8-thread pool has parts.
  const std::size_t kWideIn = 50000, kWideStatic = 49700;
  const auto widePrefix = makePrefix(kWideStatic, 59);
  const nn::Tensor wideX = makeStates(8, kWideIn, widePrefix, 61);
  auto stepFolded = [&](const std::string& kind, ThreadPool* pool) {
    Rng rng(2024);
    nn::Mlp net({kWideIn, 6, 5}, rng, pool);
    EXPECT_TRUE(net.configureStaticPrefix(widePrefix));
    auto opt = nn::makeOptimizer(kind, 0.01);
    for (int step = 0; step < 3; ++step) {
      nn::Tensor dy = net.forward(wideX);
      net.zeroGrad();
      net.backward(dy);
      const auto factored = net.factoredGrad();
      EXPECT_EQ(factored->pool, pool);
      opt->step(net.parameters(), net.gradients(), &*factored);
    }
    std::vector<double> flat;
    for (const nn::Tensor* p : net.parameters()) {
      flat.insert(flat.end(), p->data(), p->data() + p->size());
    }
    return flat;
  };
  for (const std::string kind : {"sgd", "rmsprop", "adam"}) {
    const std::vector<double> serial = stepFolded(kind, nullptr);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      ThreadPool pool(threads);
      const std::vector<double> pooled = stepFolded(kind, &pool);
      ASSERT_EQ(pooled.size(), serial.size());
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < serial.size(); ++i) mismatches += pooled[i] != serial[i];
      EXPECT_EQ(mismatches, 0u) << kind << " threads " << threads;
    }
  }
}

TEST(FoldStaticInvalidation, DqnAgentLearnAndTargetSyncTrackUnfolded) {
  const std::size_t kDim = 40, kStatic = 28;
  const auto prefix = makePrefix(kStatic, 11);

  rl::DqnConfig config;
  config.batchSize = 16;
  config.targetSyncInterval = 2;  // exercise hard target syncs mid-run
  config.hiddenSizes = {16, 16};

  Rng rngA(7), rngB(7);
  rl::DqnAgent folded(kDim, 4, config, rngA);
  rl::DqnAgent plain(kDim, 4, config, rngB);
  ASSERT_TRUE(folded.enableStaticPrefixFold(prefix));
  EXPECT_TRUE(folded.foldActive());
  EXPECT_EQ(folded.dynamicStateDim(), kDim - kStatic);
  EXPECT_FALSE(plain.foldActive());

  rl::ReplayBuffer replay(128, kDim);
  Rng fill(99);
  std::vector<double> s(kDim), s2(kDim);
  for (int i = 0; i < 64; ++i) {
    for (std::size_t c = 0; c < kDim; ++c) {
      s[c] = c < kStatic ? prefix[c] : fill.uniform();
      s2[c] = c < kStatic ? prefix[c] : fill.uniform();
    }
    replay.push(s, static_cast<int>(fill.uniformInt(4)), fill.uniform(), s2, (i % 9) == 0);
  }

  Rng learnA(13), learnB(13);
  for (int step = 0; step < 6; ++step) {
    const double lossF = folded.learn(replay, learnA);
    const double lossP = plain.learn(replay, learnB);
    // Per-step rounding (≤1e-12) feeds back through the weights, so the
    // loss gap grows with the step count; the tight bound is the weight
    // comparison below.
    EXPECT_NEAR(lossF, lossP, 1e-7) << "step " << step;
  }
  // Weight trajectories agree through learn + the interleaved syncs.
  auto pf = folded.online().parameters();
  auto pp = plain.online().parameters();
  ASSERT_EQ(pf.size(), pp.size());
  for (std::size_t i = 0; i < pf.size(); ++i) {
    EXPECT_LE(maxRelDiff(*pf[i], *pp[i]), 1e-10) << "param " << i;
  }
  // And a folded agent answers single-state queries in both widths.
  const std::vector<double> qFull = folded.qValues(s);
  const std::vector<double> qDyn =
      folded.qValues(std::span<const double>(s).subspan(kStatic));
  ASSERT_EQ(qFull.size(), qDyn.size());
  for (std::size_t i = 0; i < qFull.size(); ++i) EXPECT_EQ(qFull[i], qDyn[i]);
}

TEST(FoldStaticInvalidation, CheckpointRoundTripRefolds) {
  const auto prefix = makePrefix(28, 11);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dqndock_fold_ckpt_" + std::to_string(::getpid()) + ".bin"))
          .string();

  Rng rngA(1), rngB(2), rngC(2);
  rl::MlpQNetwork a(40, {16, 16}, 4, rngA);
  rl::MlpQNetwork b(40, {16, 16}, 4, rngB);  // different weights than a
  rl::MlpQNetwork plain(40, {16, 16}, 4, rngC);
  ASSERT_TRUE(a.configureStaticPrefix(prefix));
  ASSERT_TRUE(b.configureStaticPrefix(prefix));

  const nn::Tensor x = makeStates(4, 40, prefix, 59);
  nn::Tensor ya, yb, yp;
  b.predict(x, yb);  // prime b's cache so the restore must invalidate it
  a.predict(x, ya);

  rl::saveWeightsFile(path, a);
  rl::loadWeightsFile(path, b);
  rl::loadWeightsFile(path, plain);
  std::filesystem::remove(path);

  b.predict(x, yb);
  plain.predict(x, yp);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya.data()[i], yb.data()[i]);
  EXPECT_LE(maxRelDiff(yb, yp), kTol);
}

TEST(FoldStaticInvalidation, ModelRegistryHotSwapFoldsEachVersionOnce) {
  const auto prefix = makePrefix(28, 11);
  Rng rngA(1), rngB(2), rngC(2);
  auto seed = std::make_unique<rl::MlpQNetwork>(40, std::vector<std::size_t>{16, 16}, 4, rngA);
  auto next = std::make_unique<rl::MlpQNetwork>(40, std::vector<std::size_t>{16, 16}, 4, rngB);
  rl::MlpQNetwork plainTwin(40, {16, 16}, 4, rngC);  // same weights as `next`

  serve::ModelRegistry registry(std::move(seed));
  ASSERT_TRUE(registry.enableStaticPrefixFold(prefix));
  EXPECT_TRUE(registry.foldActive());
  EXPECT_EQ(registry.dynamicInputDim(), 12u);

  const nn::Tensor x = makeStates(3, 40, prefix, 61);
  const nn::Tensor xd = dynamicSuffix(x, prefix.size());
  nn::Tensor y;
  registry.current()->net->predict(xd, y);  // serve path: dynamic width

  // Hot-swap: the incoming network was built unfolded; publish must
  // propagate the fold so the batcher's narrow rows keep working.
  registry.publish(std::move(next), "swap");
  const auto current = registry.current();
  ASSERT_TRUE(current->net->foldActive());

  nn::Tensor ySwap, ySwapFull, yPlain;
  current->net->predict(xd, ySwap);
  current->net->predict(x, ySwapFull);
  plainTwin.predict(x, yPlain);
  EXPECT_LE(maxRelDiff(ySwap, yPlain), kTol);
  for (std::size_t i = 0; i < ySwap.size(); ++i) {
    EXPECT_EQ(ySwap.data()[i], ySwapFull.data()[i]);
  }

  // Lazy refold ran exactly once for this version despite two predicts.
  const auto& mlpNet = dynamic_cast<const rl::MlpQNetwork&>(*current->net);
  EXPECT_EQ(mlpNet.net().inputLayer().foldCount(), 1u);
}

// --- Fused row dots ---------------------------------------------------------

/// Rows of the folded bias that differ from the serial one-row dot of the
/// layer's current weights plus its current bias.
std::size_t foldedBiasMismatches(const nn::DenseLayer& layer) {
  const nn::Tensor& c = layer.foldedBias();
  const std::span<const double> xs = layer.staticPrefix();
  std::size_t mismatches = 0;
  for (std::size_t r = 0; r < layer.outDim(); ++r) {
    double acc = 0.0;
    for (std::size_t j = 0; j < xs.size(); ++j) acc += layer.weights()(r, j) * xs[j];
    mismatches += c(0, r) != acc + layer.bias()(0, r);
  }
  return mismatches;
}

/// One learn round through the agents' call shape: forward, dL/dQ = Q,
/// backward, then a step through the net's own factored descriptor.
void learnRound(rl::QNetwork& net, nn::Optimizer& opt, const nn::Tensor& x) {
  nn::Tensor dy = net.forward(x);
  net.zeroGrad();
  net.backward(dy);
  opt.step(net.parameters(), net.gradients(), net.factoredGrad());
}

const nn::DenseLayer& inputLayerOf(const rl::MlpQNetwork& net) { return net.net().inputLayer(); }

struct FusedDotShape {
  std::size_t in, staticLen, rows;
};

TEST(FoldStaticFusedDot, StepPublishesTheSerialDotOnEverySchedule) {
  // 13 rows: two row groups, the second short. 6 rows: one group, fewer
  // than any pool's participants. 80 rows: ten groups, more than the
  // participants of an 8-thread pool. All three layers fan out.
  const FusedDotShape shapes[] = {{4000, 3800, 13}, {50000, 49700, 6}, {3000, 2900, 80}};
  for (const FusedDotShape& shape : shapes) {
    const auto prefix = makePrefix(shape.staticLen, 71);
    const nn::Tensor x = makeStates(8, shape.in, prefix, 73);
    for (const std::string kind : {"sgd", "rmsprop", "adam"}) {
      auto stepFused = [&](ThreadPool* pool, const std::string& ctx) {
        Rng rng(2024);
        rl::MlpQNetwork net(shape.in, {shape.rows}, 5, rng, pool);
        EXPECT_TRUE(net.configureStaticPrefix(prefix));
        auto opt = nn::makeOptimizer(kind, 0.01);
        for (int step = 0; step < 3; ++step) {
          learnRound(net, *opt, x);
          EXPECT_EQ(foldedBiasMismatches(inputLayerOf(net)), 0u) << ctx << " step " << step;
        }
        nn::Tensor q;
        net.predict(x, q);
        // Only the first forward swept W_s: every step published its dots.
        EXPECT_EQ(inputLayerOf(net).foldCount(), 1u) << ctx;
        std::vector<double> flat;
        for (const nn::Tensor* p : net.parameters()) {
          flat.insert(flat.end(), p->data(), p->data() + p->size());
        }
        return flat;
      };
      const std::string base = kind + " rows " + std::to_string(shape.rows);
      const std::vector<double> serial = stepFused(nullptr, base + " no pool");
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
        ThreadPool pool(threads);
        const std::string ctx = base + " threads " + std::to_string(threads);
        const std::vector<double> pooled = stepFused(&pool, ctx);
        ASSERT_EQ(pooled.size(), serial.size());
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < serial.size(); ++i) mismatches += pooled[i] != serial[i];
        EXPECT_EQ(mismatches, 0u) << ctx;
      }
    }
  }
}

TEST(FoldStaticFusedDot, StaleWritesAfterAStepRefoldOnceAndBiasWritesDoNot) {
  const auto prefix = makePrefix(2900, 79);
  const nn::Tensor x = makeStates(4, 3000, prefix, 83);
  ThreadPool pool(3);
  auto makeNet = [&](std::uint64_t seed) {
    Rng rng(seed);
    auto net = std::make_unique<rl::MlpQNetwork>(3000, std::vector<std::size_t>{80}, 5, rng,
                                                 &pool);
    EXPECT_TRUE(net->configureStaticPrefix(prefix));
    return net;
  };
  auto opt = nn::makeOptimizer("rmsprop", 0.01);
  auto stepped = makeNet(1);
  learnRound(*stepped, *opt, x);
  ASSERT_EQ(inputLayerOf(*stepped).foldCount(), 1u);

  // A bias write after a step: c = dots + the new bias, no W_s sweep.
  stepped->net().layers()[0].bias()(0, 3) += 0.5;
  EXPECT_EQ(foldedBiasMismatches(inputLayerOf(*stepped)), 0u);
  EXPECT_EQ(inputLayerOf(*stepped).foldCount(), 1u) << "a bias write swept W_s";

  // A static-column weights() write after a step: one full refold.
  learnRound(*stepped, *opt, x);
  stepped->net().layers()[0].weights()(5, 17) += 0.25;
  EXPECT_EQ(foldedBiasMismatches(inputLayerOf(*stepped)), 0u);
  EXPECT_EQ(inputLayerOf(*stepped).foldCount(), 2u);

  // copyWeightsFrom after a step (the target-sync path): one full refold
  // that serves the source's weights.
  auto source = makeNet(2);
  nn::Tensor qSource, qCopy;
  source->predict(x, qSource);
  learnRound(*stepped, *opt, x);
  stepped->copyWeightsFrom(*source);
  EXPECT_EQ(foldedBiasMismatches(inputLayerOf(*stepped)), 0u);
  EXPECT_EQ(inputLayerOf(*stepped).foldCount(), 3u);
  stepped->predict(x, qCopy);
  for (std::size_t i = 0; i < qSource.size(); ++i) EXPECT_EQ(qCopy.data()[i], qSource.data()[i]);

  // A checkpoint restore after a step: one full refold that serves the
  // restored weights.
  std::stringstream blob;
  rl::saveWeights(blob, *source);
  learnRound(*stepped, *opt, x);
  rl::loadWeights(blob, *stepped);
  EXPECT_EQ(foldedBiasMismatches(inputLayerOf(*stepped)), 0u);
  EXPECT_EQ(inputLayerOf(*stepped).foldCount(), 4u);
  stepped->predict(x, qCopy);
  for (std::size_t i = 0; i < qSource.size(); ++i) EXPECT_EQ(qCopy.data()[i], qSource.data()[i]);
}

TEST(FoldStaticFusedDot, FusedTwinMatchesTheLazyRefoldOracle) {
  // Twin nets and their targets, stepped in lockstep: the fused twin
  // through the descriptor factoredGrad() returns, the oracle through a
  // copy with the row dots cleared, so it refolds lazily after each step.
  const std::size_t kIn = 3000, kStatic = 2900;
  const int kRounds = 8;
  const auto prefix = makePrefix(kStatic, 89);
  ThreadPool pool(3);
  for (const std::string kind : {"sgd", "rmsprop", "adam"}) {
    Rng rngF(2024), rngO(2024);
    rl::MlpQNetwork fused(kIn, {80, 16}, 5, rngF, &pool);
    rl::MlpQNetwork oracle(kIn, {80, 16}, 5, rngO, &pool);
    ASSERT_TRUE(fused.configureStaticPrefix(prefix));
    ASSERT_TRUE(oracle.configureStaticPrefix(prefix));
    const auto fusedTarget = fused.clone();
    const auto oracleTarget = oracle.clone();
    auto optF = nn::makeOptimizer(kind, 0.01);
    auto optO = nn::makeOptimizer(kind, 0.01);

    auto expectBitwise = [&](const nn::Tensor& a, const nn::Tensor& b, const std::string& what) {
      ASSERT_EQ(a.size(), b.size()) << what;
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < a.size(); ++i) mismatches += a.data()[i] != b.data()[i];
      EXPECT_EQ(mismatches, 0u) << kind << " " << what;
    };
    for (int round = 0; round < kRounds; ++round) {
      const nn::Tensor x = makeStates(8, kIn, prefix, 100 + static_cast<std::uint64_t>(round));
      const std::string at = "round " + std::to_string(round);
      nn::Tensor tf, to;
      fusedTarget->predict(x, tf);
      oracleTarget->predict(x, to);
      expectBitwise(tf, to, "target output, " + at);

      nn::Tensor dyF = fused.forward(x);
      nn::Tensor dyO = oracle.forward(x);
      expectBitwise(dyF, dyO, "online output, " + at);
      fused.zeroGrad();
      fused.backward(dyF);
      optF->step(fused.parameters(), fused.gradients(), fused.factoredGrad());
      oracle.zeroGrad();
      oracle.backward(dyO);
      nn::FactoredPrefixGrad lazy = *oracle.factoredGrad();
      lazy.rowDots = {};
      optO->step(oracle.parameters(), oracle.gradients(), &lazy);

      if (round % 3 == 2) {
        fusedTarget->copyWeightsFrom(fused);
        oracleTarget->copyWeightsFrom(oracle);
      }
    }
    const nn::Tensor probe = makeStates(4, kIn, prefix, 97);
    nn::Tensor qf, qo;
    fused.predict(probe, qf);
    oracle.predict(probe, qo);
    expectBitwise(qf, qo, "final output");
    // The fused twin swept W_s once; the oracle after every step.
    EXPECT_EQ(inputLayerOf(fused).foldCount(), 1u) << kind;
    EXPECT_EQ(inputLayerOf(oracle).foldCount(), static_cast<std::uint64_t>(kRounds) + 1) << kind;
    const auto pf = fused.parameters();
    const auto po = oracle.parameters();
    ASSERT_EQ(pf.size(), po.size());
    for (std::size_t i = 0; i < pf.size(); ++i) {
      expectBitwise(*pf[i], *po[i], "param " + std::to_string(i));
    }
  }
}

TEST(FoldStaticFusedDot, ReadOnlyWalksLeaveTheOnlineFoldCurrent) {
  // A polyak update reads the online net and a checkpoint save reads
  // the net it writes out; neither may cost the online input layer a W_s
  // sweep. Only the first forward folds, however many learn calls and
  // saves follow. The oracle twin takes the mutable walk after every
  // learn call, so it sweeps W_s at each next forward, and must agree
  // bit for bit.
  const std::size_t kDim = 40, kStatic = 28;
  const int kLearns = 12;
  const auto prefix = makePrefix(kStatic, 11);

  rl::DqnConfig config;
  config.batchSize = 16;
  config.hiddenSizes = {16, 16};
  config.polyakTau = 0.01;

  Rng rngA(7), rngB(7);
  rl::DqnAgent kept(kDim, 4, config, rngA);
  rl::DqnAgent oracle(kDim, 4, config, rngB);
  ASSERT_TRUE(kept.enableStaticPrefixFold(prefix));
  ASSERT_TRUE(oracle.enableStaticPrefixFold(prefix));

  rl::ReplayBuffer replay(128, kDim);
  Rng fill(99);
  std::vector<double> s(kDim), s2(kDim);
  for (int i = 0; i < 64; ++i) {
    for (std::size_t c = 0; c < kDim; ++c) {
      s[c] = c < kStatic ? prefix[c] : fill.uniform();
      s2[c] = c < kStatic ? prefix[c] : fill.uniform();
    }
    replay.push(s, static_cast<int>(fill.uniformInt(4)), fill.uniform(), s2, (i % 9) == 0);
  }

  Rng learnA(13), learnB(13);
  std::stringstream checkpoint;
  for (int step = 0; step < kLearns; ++step) {
    kept.learn(replay, learnA);
    oracle.learn(replay, learnB);
    oracle.online().parameters();  // marks the row dots stale
    if (step == kLearns / 2) rl::saveWeights(checkpoint, kept.online());
  }
  EXPECT_EQ(kept.qValues(s), oracle.qValues(s));
  const auto& keptAgent = std::as_const(kept);
  const auto& oracleAgent = std::as_const(oracle);
  auto inputFolds = [](const rl::QNetwork& net) {
    return inputLayerOf(dynamic_cast<const rl::MlpQNetwork&>(net)).foldCount();
  };
  EXPECT_EQ(inputFolds(keptAgent.online()), 1u);
  EXPECT_EQ(inputFolds(oracleAgent.online()), static_cast<std::uint64_t>(kLearns) + 1);
  for (const auto& [k, o] : {std::pair{&keptAgent.online(), &oracleAgent.online()},
                             std::pair{&keptAgent.target(), &oracleAgent.target()}}) {
    const auto pk = k->parameters();
    const auto po = o->parameters();
    ASSERT_EQ(pk.size(), po.size());
    for (std::size_t i = 0; i < pk.size(); ++i) {
      ASSERT_EQ(pk[i]->size(), po[i]->size());
      EXPECT_EQ(std::memcmp(pk[i]->data(), po[i]->data(), pk[i]->size() * sizeof(double)), 0)
          << "param " << i;
    }
  }
}


// --- Idle rows: RmsProp skips the input-layer rows whose gradient is all
// ±0 and settles their mean-square decays when they revive, bit for bit.

/// The oracle: RMSprop over every element of the full matrix and bias.
struct FullRmsProp {
  double lr, decay, epsilon;
  std::vector<double> msW, msB;

  void step(nn::Tensor& w, const nn::Tensor& gw, nn::Tensor& b, const nn::Tensor& gb) {
    update(w.flat(), gw.flat(), msW);
    update(b.flat(), gb.flat(), msB);
  }
  void update(std::span<double> p, std::span<const double> g, std::vector<double>& ms) const {
    ms.resize(p.size(), 0.0);
    for (std::size_t j = 0; j < p.size(); ++j) {
      ms[j] = decay * ms[j] + (1.0 - decay) * g[j] * g[j];
      p[j] -= lr * g[j] / std::sqrt(ms[j] + epsilon);
    }
  }
};

/// The full (out x in) weight gradient a folded layer's factored one stands
/// for: coeff ⊗ prefix in the static columns, then the packed columns.
nn::Tensor fullGradient(const nn::DenseLayer& layer) {
  const std::span<const double> xs = layer.staticPrefix();
  const nn::Tensor& gd = layer.weightGrad();
  nn::Tensor g(layer.outDim(), layer.inDim());
  for (std::size_t r = 0; r < layer.outDim(); ++r) {
    for (std::size_t j = 0; j < xs.size(); ++j) g(r, j) = layer.biasGrad()(0, r) * xs[j];
    for (std::size_t j = 0; j < gd.cols(); ++j) g(r, xs.size() + j) = gd(r, j);
  }
  return g;
}

/// Elements whose bits differ (so −0.0 and +0.0 count as different);
/// any two NaNs match.
std::size_t bitMismatches(const nn::Tensor& a, const nn::Tensor& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const bool nans = std::isnan(a.data()[i]) && std::isnan(b.data()[i]);
    mismatches += !nans && std::memcmp(a.data() + i, b.data() + i, sizeof(double)) != 0;
  }
  return mismatches;
}

/// Hand-set gradients of one step: live rows draw values of magnitude
/// `scale`; every other row gets ±0 in its coefficient and every packed
/// column, alternating signs.
void setRowGradients(nn::DenseLayer& layer, const std::vector<bool>& live, Rng& rng,
                     double scale = 1.0) {
  nn::Tensor& gd = layer.weightGrad();
  for (std::size_t r = 0; r < layer.outDim(); ++r) {
    auto value = [&](std::size_t j) {
      return live[r] ? (rng.uniform() * 2.0 - 1.0) * scale : ((r + j) % 2 == 0 ? 0.0 : -0.0);
    };
    for (std::size_t j = 0; j < gd.cols(); ++j) gd(r, j) = value(j);
    layer.biasGrad()(0, r) = value(gd.cols());
  }
}

/// A folded layer stepped through RmsProp's factored path beside the
/// full-sweep oracle's copy of its weights and bias.
struct IdleRowRun {
  IdleRowRun(const FusedDotShape& shape, std::vector<double> prefix, ThreadPool* pool,
             const FullRmsProp& hyper = {0.01, 0.95, 0.01, {}, {}})
      : layer(shape.in, shape.rows), opt(hyper.lr, hyper.decay, hyper.epsilon), oracle(hyper),
        pool(pool) {
    Rng rng(2024);
    layer.initHe(rng);
    layer.configureStaticPrefix(std::move(prefix));
    w = layer.weights();
    b = layer.bias();
    layer.foldedBias();  // the first forward's refold: the dots are current
  }

  /// One step from the layer's current gradients. The descriptor is built
  /// before the parameter walk, as DqnAgent::learn builds it.
  void step() {
    const nn::Tensor g = fullGradient(layer);
    const nn::FactoredPrefixGrad fg = layer.factoredGrad(0, pool);
    opt.step({&layer.weights(), &layer.bias()}, {&layer.weightGrad(), &layer.biasGrad()}, &fg);
    oracle.step(w, g, b, layer.biasGrad());
  }

  std::size_t mismatches() const {
    return bitMismatches(layer.weights(), w) + bitMismatches(layer.bias(), b);
  }

  nn::DenseLayer layer;
  nn::RmsProp opt;
  FullRmsProp oracle;
  nn::Tensor w, b;
  ThreadPool* pool;
};

/// Which rows live at each of `steps` steps: all at step 0, then each
/// with probability 0.3, except row 0, which sleeps until the last 4.
std::vector<std::vector<bool>> liveSchedule(std::size_t rows, int steps, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<bool>> live(static_cast<std::size_t>(steps), std::vector<bool>(rows));
  for (int t = 0; t < steps; ++t) {
    for (std::size_t r = 0; r < rows; ++r) {
      const bool draw = rng.uniform() < 0.3;
      live[static_cast<std::size_t>(t)][r] = t == 0 || (r == 0 ? t >= steps - 4 : draw);
    }
  }
  return live;
}

TEST(FoldStaticIdleRows, IdleRowsReviveBitForBitOnEverySchedule) {
  // The FoldStaticFusedDot shapes: 13 rows (a short last group), 6 rows
  // (fewer groups than participants), 80 rows (more). Every static and
  // dynamic width leaves a partial block of mean squares to settle.
  const FusedDotShape shapes[] = {{4000, 3800, 13}, {50000, 49700, 6}, {3000, 2900, 80}};
  const int kSteps = 24;
  for (const FusedDotShape& shape : shapes) {
    const auto live = liveSchedule(shape.rows, kSteps, 5);
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                      std::size_t{8}}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      IdleRowRun run(shape, makePrefix(shape.staticLen, 71), pool.get());
      Rng rng(17);
      const std::string ctx =
          "rows " + std::to_string(shape.rows) + " threads " + std::to_string(threads);
      for (int t = 0; t < kSteps; ++t) {
        setRowGradients(run.layer, live[static_cast<std::size_t>(t)], rng);
        // Live rows with one zero half: row 1 without its static
        // gradient, row 2 without its dynamic one.
        if (t % 3 == 1) run.layer.biasGrad()(0, 1) = 0.0;
        if (t % 3 == 2) {
          for (std::size_t j = 0; j < run.layer.dynamicDim(); ++j) run.layer.weightGrad()(2, j) = 0.0;
        }
        run.step();
        ASSERT_EQ(run.mismatches(), 0u) << ctx << " step " << t;
        ASSERT_EQ(foldedBiasMismatches(run.layer), 0u) << ctx << " step " << t;
      }
      // Every step kept or summed every dot: only the first refold swept W_s.
      EXPECT_EQ(run.layer.foldCount(), 1u) << ctx;
    }
  }
}

TEST(FoldStaticIdleRows, SubnormalMeanSquaresSettleToTheirFixedPoint) {
  // Row 4 gets one tiny gradient, (1−ρ)·g² ≈ 1e-300, then sleeps 1,500
  // steps while its mean squares decay through the subnormals to their
  // fixed point, then wakes with a gradient of the same size as that
  // point. ε is the smallest subnormal, so the wake-up update reads the
  // settled mean squares bit for bit.
  const double kMinSub = std::numeric_limits<double>::denorm_min();
  const FusedDotShape shape{300, 280, 9};
  const std::size_t kRow = 4;
  const int kIdle = 1500;
  IdleRowRun run(shape, makePrefix(shape.staticLen, 29), nullptr, {0.01, 0.95, kMinSub, {}, {}});
  Rng rng(19);
  std::vector<bool> live(shape.rows, true);
  auto stepRow4 = [&](double scale) {  // every row live, row 4's values times `scale`
    live.assign(shape.rows, true);
    setRowGradients(run.layer, live, rng);
    for (std::size_t j = 0; j < shape.in - shape.staticLen; ++j) {
      run.layer.weightGrad()(kRow, j) *= scale;
    }
    run.layer.biasGrad()(0, kRow) *= scale;
    run.step();
  };
  stepRow4(4.5e-150);
  ASSERT_EQ(run.mismatches(), 0u);
  for (int t = 0; t < kIdle; ++t) {
    for (std::size_t r = 0; r < shape.rows; ++r) live[r] = r != kRow && rng.uniform() < 0.5;
    setRowGradients(run.layer, live, rng);
    run.step();
    ASSERT_EQ(run.mismatches(), 0u) << "idle step " << t;
  }
  // The oracle's mean squares of row 4 sit at their subnormal fixed point.
  std::size_t subnormal = 0, fixed = 0;
  for (std::size_t j = 0; j < shape.in; ++j) {
    const double m = run.oracle.msW[kRow * shape.in + j];
    subnormal += m > 0.0 && m < std::numeric_limits<double>::min();
    fixed += 0.95 * m == m;
  }
  EXPECT_EQ(subnormal, shape.in);
  EXPECT_EQ(fixed, shape.in);

  const nn::Tensor before = run.layer.weights();
  stepRow4(1e-161);
  EXPECT_EQ(run.mismatches(), 0u) << "wake-up step";
  std::size_t moved = 0;
  for (std::size_t j = 0; j < shape.in; ++j) moved += run.w(kRow, j) != before(kRow, j);
  EXPECT_GT(moved, shape.in / 2) << "the wake-up update should move row 4";
  for (int t = 0; t < 3; ++t) {
    stepRow4(1.0);
    EXPECT_EQ(run.mismatches(), 0u) << "after wake-up " << t;
  }
}

TEST(FoldStaticIdleRows, WeightWriteBetweenIdleStepsSumsTheDotAgain) {
  // A static-column weights() write leaves the dots stale, so the next
  // step's descriptor says so and the sweep sums the idle rows' dots
  // again from their rows instead of keeping them.
  const FusedDotShape shape{3000, 2900, 80};
  ThreadPool pool(3);
  IdleRowRun run(shape, makePrefix(shape.staticLen, 79), &pool);
  const auto live = liveSchedule(shape.rows, 12, 23);
  Rng rng(31);
  for (int t = 0; t < 12; ++t) {
    std::vector<bool> rows = live[static_cast<std::size_t>(t)];
    if (t == 6) rows[5] = false;  // the written row sleeps through the next step
    setRowGradients(run.layer, rows, rng);
    run.step();
    ASSERT_EQ(run.mismatches(), 0u) << "step " << t;
    if (t == 5) {
      run.layer.weights()(5, 17) += 0.25;
      run.w(5, 17) += 0.25;
      continue;  // no forward between the write and the next step
    }
    ASSERT_EQ(foldedBiasMismatches(run.layer), 0u) << "step " << t;
  }
  EXPECT_EQ(run.layer.foldCount(), 1u);
}

TEST(FoldStaticIdleRows, DenseStepSettlesPendingDecays) {
  // Factored steps leave row 2 owing decays; a dense step over the same
  // weights (the fold switched off mid-run) must apply them first.
  const FusedDotShape shape{3000, 2900, 13};
  IdleRowRun run(shape, makePrefix(shape.staticLen, 37), nullptr);
  const auto live = liveSchedule(shape.rows, 16, 41);
  Rng rng(43);
  for (int t = 0; t < 16; ++t) {
    std::vector<bool> rows = live[static_cast<std::size_t>(t)];
    rows[2] = t == 0 || t == 10 || t == 15;
    setRowGradients(run.layer, rows, rng);
    if (t == 10) {
      nn::Tensor g = fullGradient(run.layer);
      run.opt.step({&run.layer.weights(), &run.layer.bias()}, {&g, &run.layer.biasGrad()});
      run.oracle.step(run.w, g, run.b, run.layer.biasGrad());
    } else {
      run.step();
    }
    ASSERT_EQ(run.mismatches(), 0u) << "step " << t;
    ASSERT_EQ(foldedBiasMismatches(run.layer), 0u) << "step " << t;
  }
}

TEST(FoldStaticIdleRows, SgdAndAdamStillSweepEveryRow) {
  // Under the same idle rows, SGD with momentum and Adam match their own
  // dense full sweep bit for bit: a zero gradient still moves them.
  const FusedDotShape shape{3000, 2900, 80};
  ThreadPool pool(3);
  const auto live = liveSchedule(shape.rows, 10, 47);
  for (const std::string kind : {"sgd", "adam"}) {
    IdleRowRun run(shape, makePrefix(shape.staticLen, 53), &pool);
    std::unique_ptr<nn::Optimizer> factored, full;
    if (kind == "sgd") {
      factored = std::make_unique<nn::Sgd>(0.01, 0.9);
      full = std::make_unique<nn::Sgd>(0.01, 0.9);
    } else {
      factored = nn::makeOptimizer(kind, 0.01);
      full = nn::makeOptimizer(kind, 0.01);
    }
    Rng rng(59);
    for (int t = 0; t < 10; ++t) {
      setRowGradients(run.layer, live[static_cast<std::size_t>(t)], rng);
      nn::Tensor g = fullGradient(run.layer);
      const nn::FactoredPrefixGrad fg = run.layer.factoredGrad(0, &pool);
      factored->step({&run.layer.weights(), &run.layer.bias()},
                     {&run.layer.weightGrad(), &run.layer.biasGrad()}, &fg);
      full->step({&run.w, &run.b}, {&g, &run.layer.biasGrad()});
      ASSERT_EQ(run.mismatches(), 0u) << kind << " step " << t;
      ASSERT_EQ(foldedBiasMismatches(run.layer), 0u) << kind << " step " << t;
    }
  }
}

TEST(FoldStaticIdleRows, SkippedRowKeepsANegativeZeroWeight) {
  // The one documented difference from the full sweep: under a −0 step
  // the full update turns a −0.0 weight into +0.0, a skipped row keeps
  // it. Nothing but a loaded checkpoint stores −0.0; this pins that an
  // idle row really is skipped.
  const FusedDotShape shape{3000, 2900, 13};
  IdleRowRun run(shape, makePrefix(shape.staticLen, 61), nullptr);
  const std::span<const double> xs = run.layer.staticPrefix();
  std::size_t j = 0;
  while (xs[j] <= 0.0) ++j;  // coeff −0 times x > 0 is a −0 step
  run.layer.weights()(3, j) = -0.0;
  run.w(3, j) = -0.0;
  std::vector<bool> live(shape.rows, true);
  live[3] = false;
  Rng rng(67);
  setRowGradients(run.layer, live, rng);
  run.layer.biasGrad()(0, 3) = -0.0;
  run.step();
  EXPECT_TRUE(std::signbit(run.layer.weights()(3, j)));
  EXPECT_FALSE(std::signbit(run.w(3, j)));
  EXPECT_EQ(run.mismatches(), 1u);  // that weight's sign, nothing else
  EXPECT_EQ(foldedBiasMismatches(run.layer), 0u);
}

TEST(FoldStaticIdleRows, NoSkipWhereAZeroStepMovesTheWeights) {
  // Where a zero gradient is not the identity, idle rows are swept like
  // the rest: ε = 0 (0/√0 for a weight that never had a gradient),
  // ρ > 1 (its mean squares turn negative), an infinite learning rate
  // (∞·0) and an infinite prefix value (0·∞). Each leaves NaNs in the
  // idle row that a skip would not have written.
  struct Case {
    const char* name;
    FullRmsProp hyper;
    bool infinitePrefix;
    bool liveAtFirst;  // row 3 live at step 0, idle after
  };
  const double inf = std::numeric_limits<double>::infinity();
  const Case cases[] = {{"epsilon 0", {0.01, 0.95, 0.0, {}, {}}, false, false},
                        {"decay 2", {0.01, 2.0, 1.0, {}, {}}, false, true},
                        {"lr inf", {inf, 0.95, 0.01, {}, {}}, false, false},
                        {"prefix inf", {0.01, 0.95, 0.01, {}, {}}, true, false}};
  const FusedDotShape shape{3000, 2900, 13};
  const auto live = liveSchedule(shape.rows, 8, 71);
  for (const Case& c : cases) {
    auto prefix = makePrefix(shape.staticLen, 73);
    if (c.infinitePrefix) prefix[7] = inf;
    IdleRowRun run(shape, prefix, nullptr, c.hyper);
    Rng rng(79);
    for (int t = 0; t < 8; ++t) {
      std::vector<bool> rows = live[static_cast<std::size_t>(t)];
      rows[3] = c.liveAtFirst && t == 0;
      setRowGradients(run.layer, rows, rng);
      run.step();
      ASSERT_EQ(run.mismatches(), 0u) << c.name << " step " << t;
    }
    std::size_t nans = 0;
    for (std::size_t j = 0; j < shape.in; ++j) nans += std::isnan(run.layer.weights()(3, j));
    EXPECT_GT(nans, 0u) << c.name;
  }
}

}  // namespace
}  // namespace dqndock
