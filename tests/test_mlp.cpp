// Tests for the MLP: shapes, ReLU semantics, finite-difference gradient
// verification and weight copying.

#include <gtest/gtest.h>

#include <cmath>

#include "src/nn/mlp.hpp"

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
  Tensor y;
  layer.forward(x, y, nullptr);
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
  Tensor y;
  EXPECT_THROW(layer.forward(x, y, nullptr), std::invalid_argument);
}

TEST(ReluTest, ForwardZeroesNegativesAndMasks) {
  Tensor x(1, 4);
  x(0, 0) = -1;
  x(0, 1) = 2;
  x(0, 2) = 0;
  x(0, 3) = 0.5;
  Tensor mask;
  reluForward(x, mask);
  EXPECT_DOUBLE_EQ(x(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(x(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(x(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(x(0, 3), 0.5);
  EXPECT_DOUBLE_EQ(mask(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(mask(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(mask(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(mask(0, 3), 1.0);
}

TEST(ReluTest, BackwardAppliesMask) {
  Tensor grad(1, 2, 3.0);
  Tensor mask(1, 2);
  mask(0, 0) = 0.0;
  mask(0, 1) = 1.0;
  reluBackward(grad, mask);
  EXPECT_DOUBLE_EQ(grad(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(grad(0, 1), 3.0);
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

}  // namespace
}  // namespace dqndock::nn
