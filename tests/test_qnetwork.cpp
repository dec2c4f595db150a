// Tests for the Q-network implementations, particularly the dueling
// head's combine rule and its gradients. DuelingMlp pins the dueling
// net, which runs on one nn::Mlp with a merged [V | A] head, against a
// test-local copy of the two-head net it replaced, and its folded input
// layer against an unfolded twin.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/nn/gemm.hpp"
#include "src/nn/optimizer.hpp"
#include "src/rl/qnetwork.hpp"
#include "tests/cpu_tier_guard.hpp"

namespace dqndock::rl {
namespace {

nn::Tensor randomTensor(std::size_t r, std::size_t c, Rng& rng) {
  nn::Tensor t(r, c);
  for (double& v : t.flat()) v = rng.gaussian();
  return t;
}

TEST(MlpQNetworkTest, ShapesAndClone) {
  Rng rng(1);
  MlpQNetwork net(6, {8, 8}, 4, rng);
  EXPECT_EQ(net.inputDim(), 6u);
  EXPECT_EQ(net.actionCount(), 4);
  auto clone = net.clone();
  const nn::Tensor x = randomTensor(3, 6, rng);
  nn::Tensor y1, y2;
  net.predict(x, y1);
  clone->predict(x, y2);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_DOUBLE_EQ(y1.flat()[i], y2.flat()[i]);
}

TEST(MlpQNetworkTest, CopyWeightsTypeMismatchThrows) {
  Rng rng(2);
  MlpQNetwork mlp(4, {8}, 3, rng);
  DuelingQNetwork duel(4, {8}, 3, rng);
  EXPECT_THROW(mlp.copyWeightsFrom(duel), std::invalid_argument);
  EXPECT_THROW(duel.copyWeightsFrom(mlp), std::invalid_argument);
}

TEST(DuelingQNetworkTest, NeedsHiddenLayer) {
  Rng rng(3);
  EXPECT_THROW(DuelingQNetwork(4, {}, 3, rng), std::invalid_argument);
}

TEST(DuelingQNetworkTest, AdvantageMeanIsRemoved) {
  // Q_k = V + A_k - mean(A): subtracting the per-row mean of Q recovers
  // the centered advantage, and the mean of Q equals V.
  Rng rng(4);
  DuelingQNetwork net(5, {16}, 6, rng);
  const nn::Tensor x = randomTensor(4, 5, rng);
  nn::Tensor q;
  net.predict(x, q);
  ASSERT_EQ(q.cols(), 6u);
  // The mean-centering makes each row's Q values sum to 6 * V — we can't
  // observe V directly, but we can check the identity on a second
  // forward: predictions are deterministic.
  nn::Tensor q2;
  net.predict(x, q2);
  for (std::size_t i = 0; i < q.size(); ++i) EXPECT_DOUBLE_EQ(q.flat()[i], q2.flat()[i]);
}

TEST(DuelingQNetworkTest, ForwardMatchesPredict) {
  Rng rng(5);
  DuelingQNetwork net(5, {12, 12}, 4, rng);
  const nn::Tensor x = randomTensor(3, 5, rng);
  const nn::Tensor& trainOut = net.forward(x);
  nn::Tensor inferOut;
  net.predict(x, inferOut);
  for (std::size_t i = 0; i < trainOut.size(); ++i) {
    EXPECT_NEAR(trainOut.flat()[i], inferOut.flat()[i], 1e-12);
  }
}

TEST(DuelingQNetworkTest, GradientsMatchFiniteDifferences) {
  Rng rng(6);
  DuelingQNetwork net(4, {8}, 3, rng);
  const nn::Tensor x = randomTensor(2, 4, rng);
  const nn::Tensor g = randomTensor(2, 3, rng);

  net.zeroGrad();
  net.forward(x);
  net.backward(g);

  auto loss = [&]() {
    nn::Tensor y;
    net.predict(x, y);
    double acc = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) acc += y.flat()[i] * g.flat()[i];
    return acc;
  };

  const double eps = 1e-6;
  auto params = net.parameters();
  auto grads = net.gradients();
  for (std::size_t p = 0; p < params.size(); ++p) {
    const std::size_t stride = std::max<std::size_t>(1, params[p]->size() / 4);
    for (std::size_t i = 0; i < params[p]->size(); i += stride) {
      double& w = params[p]->flat()[i];
      const double orig = w;
      w = orig + eps;
      const double up = loss();
      w = orig - eps;
      const double down = loss();
      w = orig;
      EXPECT_NEAR(grads[p]->flat()[i], (up - down) / (2 * eps), 1e-5)
          << "param " << p << " index " << i;
    }
  }
}

TEST(DuelingQNetworkTest, CloneReproducesOutputs) {
  Rng rng(7);
  DuelingQNetwork net(5, {10}, 4, rng);
  auto clone = net.clone();
  const nn::Tensor x = randomTensor(2, 5, rng);
  nn::Tensor y1, y2;
  net.predict(x, y1);
  clone->predict(x, y2);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_DOUBLE_EQ(y1.flat()[i], y2.flat()[i]);
}

TEST(QNetworkTest, ParameterCountTotals) {
  Rng rng(8);
  MlpQNetwork mlp(10, {20}, 5, rng);
  // W0: 20x10, b0: 20, W1: 5x20, b1: 5.
  EXPECT_EQ(mlp.parameterCountTotal(), 200u + 20 + 100 + 5);
  DuelingQNetwork duel(10, {20}, 5, rng);
  // trunk 20x10+20, V head 1x20+1, A head 5x20+5.
  EXPECT_EQ(duel.parameterCountTotal(), 200u + 20 + 20 + 1 + 100 + 5);
}

// --- Dueling net on nn::Mlp ------------------------------------------------

/// The two-head dueling net as it stood before the merged head: a ReLU
/// trunk on gemmABt's fused epilogue, separate V (1 unit) and A (K unit)
/// heads, the heads' input gradients summed apart, and the top trunk's
/// ReLU mask applied by an explicit multiply. Same init order (trunk, V,
/// A) from the caller's stream.
class TwoHeadOracle {
 public:
  TwoHeadOracle(std::size_t in, const std::vector<std::size_t>& hidden, int actions, Rng& rng)
      : value_(hidden.back(), 1), adv_(hidden.back(), static_cast<std::size_t>(actions)) {
    for (std::size_t h : hidden) {
      trunk_.emplace_back(in, h);
      trunk_.back().initHe(rng);
      in = h;
    }
    value_.initHe(rng);
    adv_.initHe(rng);
  }

  /// Q rows; caches the trunk inputs, masks and output for backward().
  nn::Tensor forward(const nn::Tensor& x) {
    inputs_.clear();
    masks_.assign(trunk_.size(), nn::Tensor());
    nn::Tensor buf = x;
    for (std::size_t i = 0; i < trunk_.size(); ++i) {
      inputs_.push_back(buf);
      const nn::DenseLayer& layer = trunk_[i];
      nn::Tensor y;
      nn::gemmABt(buf, layer.weights(), y, nn::GemmEpilogue{&layer.bias(), true, &masks_[i]});
      buf = std::move(y);
    }
    trunkOut_ = std::move(buf);
    nn::Tensor v, a;
    const nn::DenseLayer& value = value_;
    const nn::DenseLayer& adv = adv_;
    nn::gemmABt(trunkOut_, value.weights(), v, nn::GemmEpilogue{&value.bias()});
    nn::gemmABt(trunkOut_, adv.weights(), a, nn::GemmEpilogue{&adv.bias()});
    nn::Tensor q(a.rows(), a.cols());
    for (std::size_t r = 0; r < a.rows(); ++r) {
      double mean = 0.0;
      for (std::size_t c = 0; c < a.cols(); ++c) mean += a(r, c);
      mean /= static_cast<double>(a.cols());
      for (std::size_t c = 0; c < a.cols(); ++c) q(r, c) = v(r, 0) + a(r, c) - mean;
    }
    return q;
  }

  void backward(const nn::Tensor& dq) {
    nn::Tensor dv(dq.rows(), 1), da(dq.rows(), dq.cols());
    for (std::size_t r = 0; r < dq.rows(); ++r) {
      double sum = 0.0;
      for (std::size_t c = 0; c < dq.cols(); ++c) sum += dq(r, c);
      dv(r, 0) = sum;
      const double mean = sum / static_cast<double>(dq.cols());
      for (std::size_t c = 0; c < dq.cols(); ++c) da(r, c) = dq(r, c) - mean;
    }
    nn::Tensor fromV, fromA;
    value_.backward(trunkOut_, dv, &fromV);
    adv_.backward(trunkOut_, da, &fromA);
    nn::Tensor grad = fromV;
    for (std::size_t i = 0; i < grad.size(); ++i) grad.flat()[i] += fromA.flat()[i];
    for (std::size_t i = 0; i < grad.size(); ++i) grad.flat()[i] *= masks_.back().flat()[i];
    for (std::size_t i = trunk_.size(); i-- > 0;) {
      nn::Tensor dx;
      trunk_[i].backward(inputs_[i], grad, i > 0 ? &dx : nullptr,
                         i > 0 ? &masks_[i - 1] : nullptr);
      grad = std::move(dx);
    }
  }

  /// Flat parameters (or gradients) in the merged net's order: trunk
  /// W, b pairs, then [V; A] weights and [V, A] biases.
  std::vector<std::vector<double>> parameters() const { return walk(false); }
  std::vector<std::vector<double>> gradients() const { return walk(true); }

 private:
  std::vector<std::vector<double>> walk(bool grads) const {
    auto w = [&](const nn::DenseLayer& l) { return grads ? &l.weightGrad() : &l.weights(); };
    auto b = [&](const nn::DenseLayer& l) { return grads ? &l.biasGrad() : &l.bias(); };
    auto flat = [](std::initializer_list<const nn::Tensor*> parts) {
      std::vector<double> out;
      for (const nn::Tensor* t : parts) out.insert(out.end(), t->data(), t->data() + t->size());
      return out;
    };
    std::vector<std::vector<double>> out;
    for (const nn::DenseLayer& layer : trunk_) {
      out.push_back(flat({w(layer)}));
      out.push_back(flat({b(layer)}));
    }
    out.push_back(flat({w(value_), w(adv_)}));
    out.push_back(flat({b(value_), b(adv_)}));
    return out;
  }

  std::vector<nn::DenseLayer> trunk_;
  nn::DenseLayer value_, adv_;
  std::vector<nn::Tensor> inputs_, masks_;
  nn::Tensor trunkOut_;
};

struct DuelingShape {
  std::size_t in;
  std::vector<std::size_t> hidden;
  int actions;
};

// The scaled preset's ligand-only net, a mid-size one, and Table 1 unfolded.
const DuelingShape kDuelingShapes[] = {
    {36, {64, 64}, 12}, {300, {135, 135}, 12}, {16599, {135, 135}, 12}};

::testing::AssertionResult sameBits(const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure() << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult sameBits(const nn::Tensor& a, const nn::Tensor& b) {
  if (!a.sameShape(b)) return ::testing::AssertionFailure() << "shape differs";
  return sameBits(a.data(), b.data(), a.size());
}

std::string shapeName(const DuelingShape& shape) {
  std::string name = std::to_string(shape.in);
  for (std::size_t h : shape.hidden) name += "-" + std::to_string(h);
  return name + "-" + std::to_string(shape.actions);
}

/// A DQN-style dL/dQ: one taken action per row.
nn::Tensor takenActionGrad(std::size_t rows, int actions, Rng& rng) {
  nn::Tensor dq(rows, static_cast<std::size_t>(actions));
  for (std::size_t r = 0; r < rows; ++r) {
    dq(r, rng.uniformInt(static_cast<std::uint64_t>(actions))) = rng.gaussian() / 32.0;
  }
  return dq;
}

TEST(DuelingMlp, InitForwardAndPredictMatchTwoHeadOracleOnEveryTier) {
  ThreadPool pool(3);
  for (CpuTier tier : supportedCpuTiers()) {
    CpuTierGuard guard(tier);
    for (const DuelingShape& shape : kDuelingShapes) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE(std::string(cpuTierName(tier)) + " " + shapeName(shape) +
                     (p != nullptr ? " pooled" : " pool-less"));
        Rng rngNet(31), rngOracle(31);
        DuelingQNetwork net(shape.in, shape.hidden, shape.actions, rngNet, p);
        TwoHeadOracle oracle(shape.in, shape.hidden, shape.actions, rngOracle);
        const auto params = std::as_const(net).parameters();
        const auto want = oracle.parameters();
        ASSERT_EQ(params.size(), want.size());
        for (std::size_t t = 0; t < params.size(); ++t) {
          ASSERT_EQ(params[t]->size(), want[t].size()) << "tensor " << t;
          EXPECT_TRUE(sameBits(params[t]->data(), want[t].data(), want[t].size()))
              << "initial tensor " << t;
        }
        for (std::size_t rows : {1u, 5u, 32u}) {
          Rng rng(rows);
          const nn::Tensor x = randomTensor(rows, shape.in, rng);
          const nn::Tensor q = oracle.forward(x);
          EXPECT_TRUE(sameBits(net.forward(x), q)) << "forward, rows " << rows;
          nn::Tensor predicted;
          net.predict(x, predicted);
          EXPECT_TRUE(sameBits(predicted, q)) << "predict, rows " << rows;
        }
      }
    }
  }
}

TEST(DuelingMlp, GradientsMatchTwoHeadOracleWithinUlps) {
  // The top trunk layer's dX sums V's and A's terms in one gemmAB where
  // the two-head net took two products and an add, so the trunk
  // gradients may differ by a few ulps of the tensor's scale.
  for (CpuTier tier : supportedCpuTiers()) {
    CpuTierGuard guard(tier);
    for (const DuelingShape& shape : kDuelingShapes) {
      SCOPED_TRACE(std::string(cpuTierName(tier)) + " " + shapeName(shape));
      Rng rngNet(47), rngOracle(47);
      DuelingQNetwork net(shape.in, shape.hidden, shape.actions, rngNet);
      TwoHeadOracle oracle(shape.in, shape.hidden, shape.actions, rngOracle);
      Rng rng(5);
      const nn::Tensor x = randomTensor(32, shape.in, rng);
      const nn::Tensor dq = takenActionGrad(32, shape.actions, rng);
      net.zeroGrad();
      net.forward(x);
      net.backward(dq);
      oracle.forward(x);
      oracle.backward(dq);
      const auto got = net.gradients();
      const auto want = oracle.gradients();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t t = 0; t < got.size(); ++t) {
        ASSERT_EQ(got[t]->size(), want[t].size()) << "tensor " << t;
        double scale = 0.0, worst = 0.0;
        for (double v : want[t]) scale = std::max(scale, std::abs(v));
        for (std::size_t i = 0; i < want[t].size(); ++i) {
          worst = std::max(worst, std::abs(got[t]->data()[i] - want[t][i]));
        }
        EXPECT_GT(scale, 0.0) << "gradient tensor " << t << " is all zero";
        EXPECT_LE(worst, 1e-12 * scale) << "gradient tensor " << t;
      }
    }
  }
}

constexpr std::size_t kFoldIn = 600, kFoldStatic = 480;

std::vector<double> foldPrefix() {
  Rng rng(19);
  std::vector<double> prefix(kFoldStatic);
  for (double& v : prefix) v = rng.uniform() * 2.0 - 1.0;
  return prefix;
}

/// Rows whose leading kFoldStatic columns hold the folded prefix.
nn::Tensor foldStates(std::size_t rows, std::uint64_t seed) {
  const std::vector<double> prefix = foldPrefix();
  Rng rng(seed);
  nn::Tensor x(rows, kFoldIn);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < kFoldIn; ++c) {
      x(r, c) = c < kFoldStatic ? prefix[c] : rng.uniform() * 2.0 - 1.0;
    }
  }
  return x;
}

double maxRelDiff(const nn::Tensor& a, const nn::Tensor& b) {
  EXPECT_TRUE(a.sameShape(b));
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double denom = std::max({std::abs(a.data()[i]), std::abs(b.data()[i]), 1.0});
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]) / denom);
  }
  return worst;
}

TEST(DuelingMlp, CloneReproducesOutputsAndKeepsTheFold) {
  ThreadPool pool(2);
  Rng rng(53);
  DuelingQNetwork net(kFoldIn, {64, 64}, 12, rng, &pool);
  ASSERT_TRUE(net.configureStaticPrefix(foldPrefix()));
  const nn::Tensor x = foldStates(32, 59);
  nn::Tensor want;
  net.predict(x, want);
  const auto clone = net.clone();
  EXPECT_TRUE(clone->foldActive());
  EXPECT_EQ(clone->dynamicInputDim(), kFoldIn - kFoldStatic);
  EXPECT_NE(clone->factoredGrad(), nullptr);
  nn::Tensor got;
  clone->predict(x, got);
  EXPECT_TRUE(sameBits(got, want));
  EXPECT_TRUE(sameBits(clone->forward(x), want));
}

TEST(DuelingMlp, FoldedMatchesUnfoldedAndFoldsOncePerWeightVersion) {
  Rng rngFolded(61), rngPlain(61);
  DuelingQNetwork folded(kFoldIn, {64, 64}, 12, rngFolded);
  DuelingQNetwork plain(kFoldIn, {64, 64}, 12, rngPlain);
  ASSERT_TRUE(folded.configureStaticPrefix(foldPrefix()));
  EXPECT_FALSE(plain.foldActive());
  const nn::DenseLayer& input = folded.net().inputLayer();
  const nn::Tensor x = foldStates(32, 67);

  nn::Tensor yFolded, yPlain;
  for (std::uint64_t version = 1; version <= 3; ++version) {
    SCOPED_TRACE("weight version " + std::to_string(version));
    if (version > 1) {
      // A static-column write: only the folded bias carries it.
      for (DuelingQNetwork* net : {&folded, &plain}) {
        net->net().layers().front().weights()(3, 5) += 0.125 * static_cast<double>(version);
      }
    }
    folded.predict(x, yFolded);
    plain.predict(x, yPlain);
    EXPECT_LE(maxRelDiff(yFolded, yPlain), 1e-12);
    EXPECT_EQ(input.foldCount(), version);
    EXPECT_LE(maxRelDiff(folded.forward(x), plain.forward(x)), 1e-12);
    EXPECT_EQ(input.foldCount(), version) << "refolded without a weight change";
  }

  // RMSprop steps, the folded twin through the factored descriptor.
  nn::RmsProp optFolded(0.01), optPlain(0.01);
  Rng rng(71);
  for (int step = 0; step < 3; ++step) {
    const nn::Tensor dq = takenActionGrad(32, 12, rng);
    for (DuelingQNetwork* net : {&folded, &plain}) {
      net->zeroGrad();
      net->forward(x);
      net->backward(dq);
    }
    const nn::FactoredPrefixGrad* factored = folded.factoredGrad();
    ASSERT_NE(factored, nullptr);
    optFolded.step(folded.parameters(), folded.gradients(), factored);
    EXPECT_EQ(plain.factoredGrad(), nullptr);
    optPlain.step(plain.parameters(), plain.gradients());
  }
  const auto pf = std::as_const(folded).parameters();
  const auto pp = std::as_const(plain).parameters();
  ASSERT_EQ(pf.size(), pp.size());
  for (std::size_t t = 0; t < pf.size(); ++t) {
    EXPECT_LE(maxRelDiff(*pf[t], *pp[t]), 1e-12) << "parameter tensor " << t;
  }
  folded.predict(x, yFolded);
  plain.predict(x, yPlain);
  EXPECT_LE(maxRelDiff(yFolded, yPlain), 1e-12) << "after the optimizer steps";
}

}  // namespace
}  // namespace dqndock::rl
