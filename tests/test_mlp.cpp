// Tests for the MLP: shapes, finite-difference gradient verification,
// weight copying, and the row-split forward on a pool (bitwise the
// pool-less result, engaged only above its work floor), for plain nets
// and the dueling Q-network's merged-head net.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "src/nn/mlp.hpp"
#include "src/rl/qnetwork.hpp"

namespace dqndock::nn {
namespace {

Tensor randomTensor(std::size_t r, std::size_t c, Rng& rng) {
  Tensor t(r, c);
  for (double& v : t.flat()) v = rng.gaussian();
  return t;
}

TEST(DenseLayerTest, ForwardShapeAndBias) {
  Rng rng(1);
  DenseLayer layer(3, 2);
  layer.initHe(rng);
  layer.bias()(0, 0) = 10.0;
  layer.bias()(0, 1) = -5.0;
  Tensor x(4, 3, 0.0);  // zero input -> output equals bias
  Tensor y(4, 2);
  layer.forwardRows(x, y, 0, 4);
  ASSERT_EQ(y.rows(), 4u);
  ASSERT_EQ(y.cols(), 2u);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(y(r, 0), 10.0);
    EXPECT_DOUBLE_EQ(y(r, 1), -5.0);
  }
}

TEST(DenseLayerTest, ForwardDimMismatchThrows) {
  Rng rng(2);
  DenseLayer layer(3, 2);
  layer.initHe(rng);
  Tensor x(1, 5);
  Tensor y(1, 2);
  EXPECT_THROW(layer.forwardRows(x, y, 0, 1), std::invalid_argument);
}

TEST(MlpTest, ConstructionValidation) {
  Rng rng(3);
  EXPECT_THROW(Mlp({5}, rng), std::invalid_argument);
  EXPECT_THROW(Mlp({5, 0, 2}, rng), std::invalid_argument);
  Mlp net({5, 7, 3}, rng);
  EXPECT_EQ(net.inputDim(), 5u);
  EXPECT_EQ(net.outputDim(), 3u);
  EXPECT_EQ(net.parameterCount(), 5u * 7 + 7 + 7u * 3 + 3);
}

TEST(MlpTest, ForwardAndPredictAgree) {
  Rng rng(4);
  Mlp net({6, 8, 8, 4}, rng);
  const Tensor x = randomTensor(5, 6, rng);
  const Tensor& yTrain = net.forward(x);
  Tensor yPredict;
  net.predict(x, yPredict);
  ASSERT_EQ(yTrain.rows(), yPredict.rows());
  for (std::size_t i = 0; i < yTrain.size(); ++i) {
    EXPECT_NEAR(yTrain.flat()[i], yPredict.flat()[i], 1e-12);
  }
}

/// Finite-difference gradient check on a scalar loss L = sum(Y * G) with a
/// fixed cotangent G, so dL/dY = G exactly.
TEST(MlpTest, GradientsMatchFiniteDifferences) {
  Rng rng(5);
  Mlp net({4, 6, 5, 3}, rng);
  const Tensor x = randomTensor(3, 4, rng);
  const Tensor g = randomTensor(3, 3, rng);  // cotangent

  net.zeroGrad();
  net.forward(x);
  net.backward(g);

  auto loss = [&]() {
    Tensor y;
    net.predict(x, y);
    double acc = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) acc += y.flat()[i] * g.flat()[i];
    return acc;
  };

  const double eps = 1e-6;
  auto params = net.parameters();
  auto grads = net.gradients();
  int checked = 0;
  for (std::size_t p = 0; p < params.size(); ++p) {
    // Spot-check a handful of coordinates per parameter tensor.
    for (std::size_t i = 0; i < params[p]->size(); i += std::max<std::size_t>(1, params[p]->size() / 5)) {
      double& w = params[p]->flat()[i];
      const double orig = w;
      w = orig + eps;
      const double up = loss();
      w = orig - eps;
      const double down = loss();
      w = orig;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(grads[p]->flat()[i], numeric, 1e-5)
          << "param tensor " << p << " index " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(MlpTest, BackwardAccumulatesUntilZeroGrad) {
  Rng rng(6);
  Mlp net({3, 4, 2}, rng);
  const Tensor x = randomTensor(2, 3, rng);
  const Tensor g = randomTensor(2, 2, rng);
  net.zeroGrad();
  net.forward(x);
  net.backward(g);
  const double once = maxAbs(*net.gradients()[0]);
  net.forward(x);
  net.backward(g);
  const double twice = maxAbs(*net.gradients()[0]);
  EXPECT_NEAR(twice, 2 * once, 1e-9);
  net.zeroGrad();
  EXPECT_DOUBLE_EQ(maxAbs(*net.gradients()[0]), 0.0);
}

TEST(MlpTest, CopyWeightsMakesNetworksIdentical) {
  Rng rngA(7), rngB(8);
  Mlp a({4, 5, 3}, rngA);
  Mlp b({4, 5, 3}, rngB);
  const Tensor x = randomTensor(2, 4, rngA);
  Tensor ya, yb;
  a.predict(x, ya);
  b.predict(x, yb);
  EXPECT_GT(maxAbs(ya) + maxAbs(yb), 0.0);
  b.copyWeightsFrom(a);
  b.predict(x, yb);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_DOUBLE_EQ(ya.flat()[i], yb.flat()[i]);
}

TEST(MlpTest, CopyWeightsShapeMismatchThrows) {
  Rng rng(9);
  Mlp a({4, 5, 3}, rng);
  Mlp b({4, 6, 3}, rng);
  Mlp c({4, 3}, rng);
  EXPECT_THROW(b.copyWeightsFrom(a), std::invalid_argument);
  EXPECT_THROW(c.copyWeightsFrom(a), std::invalid_argument);
}

// --- Row-split forward -------------------------------------------------
//
// On a pool, forward() and predict() hand groups of 4 rows through every
// layer to the caller and the pool's workers. Each net below has a
// pool-less twin built from the same seed; every output, activation
// gradient and weight gradient must match it bit for bit.

constexpr std::size_t kPaperStatic = 16332;  // Table 1's 2BSM receptor block
const std::vector<std::size_t> kPaperDims = {16599, 135, 135, 12};
const std::vector<std::size_t> kScaledDims = {36, 64, 64, 12};
const std::vector<std::size_t> kRowCounts = {1, 3, 4, 5, 7, 8, 9, 31, 32, 33, 64};

std::vector<double> staticPrefix(std::size_t s) {
  Rng rng(77);
  std::vector<double> prefix(s);
  for (double& v : prefix) v = rng.uniform();
  return prefix;
}

/// A net on `pool`, folded over the first `fold` inputs when fold > 0.
std::unique_ptr<Mlp> makeNet(const std::vector<std::size_t>& dims, std::size_t fold,
                             ThreadPool* pool) {
  Rng rng(2024);
  auto net = std::make_unique<Mlp>(dims, rng, pool);
  if (fold > 0) {
    const std::vector<double> prefix = staticPrefix(fold);
    EXPECT_TRUE(net->configureStaticPrefix(prefix));
  }
  return net;
}

::testing::AssertionResult sameBits(const Tensor& a, const Tensor& b) {
  if (!a.sameShape(b)) return ::testing::AssertionFailure() << "shape differs";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a.flat()[i], &b.flat()[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << " (row " << i / a.cols() << "): " << a.flat()[i] << " vs "
             << b.flat()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

const Mlp& mlpOf(const Mlp& net) { return net; }
const Mlp& mlpOf(const rl::DuelingQNetwork& net) { return net.net(); }

/// predict, forward and the gradients of a backward after it, at every
/// row count, for 1-, 2-, 3- and 8-thread pools. `make(pool)` builds the
/// net from one seed: an Mlp, or a dueling Q-network on one.
template <class MakeNet>
void expectSplitMatchesPoolLess(const MakeNet& make) {
  auto serial = make(nullptr);
  const std::size_t width = serial->dynamicInputDim();
  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    auto pooled = make(&pool);
    bool split = false;
    for (std::size_t rows : kRowCounts) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", rows " + std::to_string(rows));
      split = split || mlpOf(*pooled).rowParts(rows) > 1;
      Rng rng(rows);
      const Tensor x = randomTensor(rows, width, rng);
      Tensor want, got;
      serial->predict(x, want);
      pooled->predict(x, got);
      EXPECT_TRUE(sameBits(want, got)) << "predict";
      const Tensor g = randomTensor(rows, want.cols(), rng);

      serial->zeroGrad();
      pooled->zeroGrad();
      EXPECT_TRUE(sameBits(serial->forward(x), pooled->forward(x))) << "forward";
      serial->backward(g);
      pooled->backward(g);
      const auto gw = serial->gradients();
      const auto gp = pooled->gradients();
      for (std::size_t t = 0; t < gw.size(); ++t) {
        EXPECT_TRUE(sameBits(*gw[t], *gp[t])) << "gradient tensor " << t;
      }
    }
    EXPECT_TRUE(split) << "no row count split on " << threads << " threads";
  }
}

/// An Mlp of `dims`, folded over its first `fold` inputs when fold > 0.
void expectSplitMatchesPoolLess(const std::vector<std::size_t>& dims, std::size_t fold) {
  expectSplitMatchesPoolLess([&](ThreadPool* pool) { return makeNet(dims, fold, pool); });
}

TEST(MlpRowSplit, FoldedPaperNetMatchesPoolLessTwin) {
  expectSplitMatchesPoolLess(kPaperDims, kPaperStatic);
}

TEST(MlpRowSplit, UnfoldedNetMatchesPoolLessTwin) {
  expectSplitMatchesPoolLess({1000, 135, 135, 12}, 0);
}

TEST(MlpRowSplit, C51WideOutputMatchesPoolLessTwin) {
  // 12 actions x 51 atoms: the categorical head of the A4 C51 row.
  expectSplitMatchesPoolLess({36, 64, 64, 612}, 0);
}

TEST(MlpRowSplit, DuelingNetMatchesPoolLessTwin) {
  // The dueling Q-network's [V | A] head on the folded Table 1 trunk.
  expectSplitMatchesPoolLess([](ThreadPool* pool) {
    Rng rng(2024);
    auto net = std::make_unique<rl::DuelingQNetwork>(
        kPaperDims.front(), std::vector<std::size_t>{135, 135}, 12, rng, pool);
    EXPECT_TRUE(net->configureStaticPrefix(staticPrefix(kPaperStatic)));
    return net;
  });
}

TEST(MlpRowSplit, RowPartsSplitsOnlyAboveTheWorkFloor) {
  ThreadPool three(3), four(4);
  auto paper3 = makeNet(kPaperDims, kPaperStatic, &three);
  auto paper4 = makeNet(kPaperDims, kPaperStatic, &four);
  EXPECT_GT(paper3->rowParts(32), 1u);
  EXPECT_GE(paper4->rowParts(32), 4u);  // every thread of a 4-thread pool
  EXPECT_LE(paper4->rowParts(32), 5u);  // at most the workers plus the caller
  EXPECT_EQ(paper4->rowParts(1), 1u);   // one row is one group
  EXPECT_EQ(paper4->rowParts(4), 1u);
  EXPECT_EQ(makeNet(kPaperDims, kPaperStatic, nullptr)->rowParts(32), 1u);
  // The scaled preset's batch-32 forward stays under the floor.
  EXPECT_EQ(makeNet(kScaledDims, 0, &four)->rowParts(32), 1u);
}

TEST(MlpRowSplit, SplitForwardFoldsOncePerWeightVersion) {
  ThreadPool pool(3);
  auto serial = makeNet(kPaperDims, kPaperStatic, nullptr);
  auto pooled = makeNet(kPaperDims, kPaperStatic, &pool);
  ASSERT_GT(pooled->rowParts(32), 1u);
  Rng rng(5);
  const Tensor x = randomTensor(32, pooled->dynamicInputDim(), rng);
  Tensor want, got;
  for (std::uint64_t version = 1; version <= 3; ++version) {
    SCOPED_TRACE("weight version " + std::to_string(version));
    if (version > 1) {
      // A static-column write: the next forward must sweep W_s again.
      for (Mlp* net : {serial.get(), pooled.get()}) {
        net->layers().front().weights()(7, 11) += 0.25 * static_cast<double>(version);
      }
    }
    EXPECT_TRUE(sameBits(serial->forward(x), pooled->forward(x)));
    EXPECT_EQ(pooled->inputLayer().foldCount(), version);
    serial->predict(x, want);
    pooled->predict(x, got);
    EXPECT_TRUE(sameBits(want, got));
    pooled->forward(x);
    EXPECT_EQ(pooled->inputLayer().foldCount(), version) << "refolded without a weight change";
  }
  // A factored RMSprop step leaves the row dots current, so the split
  // forward after it rebuilds c from them without a W_s sweep.
  const Tensor g = randomTensor(32, kPaperDims.back(), rng);
  for (Mlp* net : {serial.get(), pooled.get()}) {
    RmsProp opt(0.01);
    net->zeroGrad();
    net->forward(x);
    net->backward(g);
    const auto factored = net->factoredGrad();
    opt.step(net->parameters(), net->gradients(), &*factored);
  }
  const std::uint64_t folds = pooled->inputLayer().foldCount();
  EXPECT_TRUE(sameBits(serial->forward(x), pooled->forward(x))) << "after an optimizer step";
  EXPECT_EQ(pooled->inputLayer().foldCount(), folds);
}

TEST(MlpRowSplit, PredictIntoItsOwnInput) {
  ThreadPool pool(3);
  for (std::size_t fold : {std::size_t{0}, kPaperStatic}) {
    auto serial = makeNet(kPaperDims, fold, nullptr);
    auto pooled = makeNet(kPaperDims, fold, &pool);
    // Full-width rows, and for the folded net dynamic-width rows too.
    std::vector<std::size_t> widths = {pooled->inputDim()};
    if (fold > 0) widths.push_back(pooled->dynamicInputDim());
    for (std::size_t width : widths) {
      SCOPED_TRACE("fold " + std::to_string(fold) + ", width " + std::to_string(width));
      Rng rng(width);
      const Tensor x = randomTensor(32, width, rng);
      ASSERT_GT(pooled->rowParts(32), 1u);
      Tensor want;
      serial->predict(x, want);
      Tensor inPlace = x;
      pooled->predict(inPlace, inPlace);
      EXPECT_TRUE(sameBits(want, inPlace));
    }
  }
}

}  // namespace
}  // namespace dqndock::nn
