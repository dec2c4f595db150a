// Tests for the DQN agent: action selection, learning updates, target
// synchronization and the Double-DQN / dueling variants.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/rl/dqn_agent.hpp"
#include "src/rl/replay_buffer.hpp"

namespace dqndock::rl {
namespace {

DqnConfig smallConfig() {
  DqnConfig cfg;
  cfg.hiddenSizes = {16, 16};
  cfg.batchSize = 8;
  cfg.targetSyncInterval = 10;
  cfg.optimizer = "adam";
  cfg.learningRate = 0.005;
  return cfg;
}

/// A tiny fixed experience source: one state, action 0 always yields
/// reward 1 into a terminal state, action 1 yields 0.
class FixedSource final : public ExperienceSource {
 public:
  explicit FixedSource(std::size_t dim) : dim_(dim) {}
  std::size_t size() const override { return 1000; }
  Minibatch sample(std::size_t batch, Rng& rng) const override {
    Minibatch mb;
    mb.states.resize(batch, dim_);
    mb.nextStates.resize(batch, dim_);
    mb.actions.resize(batch);
    mb.rewards.resize(batch);
    mb.terminals.resize(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      mb.states(b, 0) = 1.0;
      mb.nextStates(b, 0) = 1.0;
      const bool good = rng.bernoulli(0.5);
      mb.actions[b] = good ? 0 : 1;
      mb.rewards[b] = good ? 1.0 : 0.0;
      mb.terminals[b] = 1;  // terminal: target is the raw reward
    }
    return mb;
  }

 private:
  std::size_t dim_;
};

TEST(DqnAgentTest, ConstructionValidation) {
  Rng rng(1);
  EXPECT_THROW(DqnAgent(4, 0, smallConfig(), rng), std::invalid_argument);
  DqnAgent agent(4, 3, smallConfig(), rng);
  EXPECT_EQ(agent.stateDim(), 4u);
  EXPECT_EQ(agent.actionCount(), 3);
}

TEST(DqnAgentTest, StateDimMismatchThrows) {
  Rng rng(2);
  DqnAgent agent(4, 3, smallConfig(), rng);
  std::vector<double> wrong(5, 0.0);
  EXPECT_THROW(agent.qValues(wrong), std::invalid_argument);
}

TEST(DqnAgentTest, GreedyPicksArgmax) {
  Rng rng(3);
  DqnAgent agent(4, 3, smallConfig(), rng);
  const std::vector<double> s{0.5, -0.5, 1.0, 0.0};
  const auto q = agent.qValues(s);
  const int greedy = agent.greedyAction(s);
  for (double v : q) EXPECT_LE(v, q[static_cast<std::size_t>(greedy)]);
  EXPECT_DOUBLE_EQ(agent.maxQ(s), q[static_cast<std::size_t>(greedy)]);
}

TEST(DqnAgentTest, EpsilonZeroIsGreedyEpsilonOneIsRandom) {
  Rng rng(4);
  DqnAgent agent(4, 4, smallConfig(), rng);
  const std::vector<double> s{1, 2, 3, 4};
  const int greedy = agent.greedyAction(s);
  Rng actRng(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(agent.selectAction(s, 0.0, actRng), greedy);
  }
  // With epsilon 1, all actions appear.
  std::vector<int> seen(4, 0);
  for (int i = 0; i < 400; ++i) ++seen[static_cast<std::size_t>(agent.selectAction(s, 1.0, actRng))];
  for (int a = 0; a < 4; ++a) EXPECT_GT(seen[static_cast<std::size_t>(a)], 0);
}

TEST(DqnAgentTest, LearnNoopWhenSourceTooSmall) {
  Rng rng(6);
  DqnAgent agent(2, 2, smallConfig(), rng);
  ReplayBuffer rb(100, 2);
  const std::vector<double> zero{0.0, 0.0};
  rb.push(zero, 0, 0, zero, false);  // 1 < batchSize
  EXPECT_DOUBLE_EQ(agent.learn(rb, rng), 0.0);
  EXPECT_EQ(agent.learnSteps(), 0u);
}

TEST(DqnAgentTest, LearningDrivesQTowardTargets) {
  Rng rng(7);
  DqnConfig cfg = smallConfig();
  cfg.gamma = 0.9;
  DqnAgent agent(2, 2, cfg, rng);
  FixedSource source(2);
  const std::vector<double> s{1.0, 0.0};
  for (int i = 0; i < 600; ++i) agent.learn(source, rng);
  const auto q = agent.qValues(s);
  // Terminal targets: Q(s, 0) -> 1, Q(s, 1) -> 0.
  EXPECT_NEAR(q[0], 1.0, 0.15);
  EXPECT_NEAR(q[1], 0.0, 0.15);
  EXPECT_EQ(agent.greedyAction(s), 0);
}

TEST(DqnAgentTest, TargetSyncHappensEveryC) {
  Rng rng(8);
  DqnConfig cfg = smallConfig();
  cfg.targetSyncInterval = 5;
  DqnAgent agent(2, 2, cfg, rng);
  FixedSource source(2);
  nn::Tensor x(1, 2);
  x(0, 0) = 1.0;
  // After 4 learn steps, target still differs from online (online moved).
  for (int i = 0; i < 4; ++i) agent.learn(source, rng);
  nn::Tensor qOnline, qTarget;
  agent.online().predict(x, qOnline);
  agent.target().predict(x, qTarget);
  const double diffBefore = std::fabs(qOnline(0, 0) - qTarget(0, 0)) +
                            std::fabs(qOnline(0, 1) - qTarget(0, 1));
  EXPECT_GT(diffBefore, 1e-9);
  // The 5th step triggers the sync.
  agent.learn(source, rng);
  agent.online().predict(x, qOnline);
  agent.target().predict(x, qTarget);
  for (std::size_t i = 0; i < qOnline.size(); ++i) {
    EXPECT_DOUBLE_EQ(qOnline.flat()[i], qTarget.flat()[i]);
  }
}

TEST(DqnAgentTest, ManualSyncTarget) {
  Rng rng(9);
  DqnAgent agent(2, 2, smallConfig(), rng);
  FixedSource source(2);
  agent.learn(source, rng);
  agent.syncTarget();
  nn::Tensor x(1, 2, 0.5), qOnline, qTarget;
  agent.online().predict(x, qOnline);
  agent.target().predict(x, qTarget);
  for (std::size_t i = 0; i < qOnline.size(); ++i) {
    EXPECT_DOUBLE_EQ(qOnline.flat()[i], qTarget.flat()[i]);
  }
}

class VariantTest : public ::testing::TestWithParam<std::tuple<DqnVariant, bool>> {};

TEST_P(VariantTest, AllVariantsLearnTheFixedProblem) {
  const auto [variant, dueling] = GetParam();
  Rng rng(10);
  DqnConfig cfg = smallConfig();
  cfg.variant = variant;
  cfg.dueling = dueling;
  DqnAgent agent(2, 2, cfg, rng);
  FixedSource source(2);
  const std::vector<double> s{1.0, 0.0};
  for (int i = 0; i < 600; ++i) agent.learn(source, rng);
  EXPECT_EQ(agent.greedyAction(s), 0)
      << dqnVariantName(variant) << (dueling ? "+dueling" : "");
}

INSTANTIATE_TEST_SUITE_P(
    Variants, VariantTest,
    ::testing::Values(std::tuple{DqnVariant::kVanilla, false},
                      std::tuple{DqnVariant::kDouble, false},
                      std::tuple{DqnVariant::kVanilla, true},
                      std::tuple{DqnVariant::kDouble, true}));

TEST(DqnAgentTest, FoldedLearnTrajectoryBitIdenticalWithAndWithoutPool) {
  // The folded input layer's optimizer update splits across the net's
  // pool by rows (16 x 20,000 is wide enough to split). Every element
  // updates on its own, so the pooled agent follows the serial agent's
  // trajectory bit for bit: losses, online weights, and the target net
  // through two syncs.
  const std::size_t kDim = 20000, kStatic = 19900, kDynamic = kDim - kStatic;
  Rng prefixRng(31);
  std::vector<double> prefix(kStatic);
  for (double& v : prefix) v = prefixRng.uniform(-1.0, 1.0);
  Rng probeRng(37);
  nn::Tensor probe(4, kDynamic);
  for (double& v : probe.flat()) v = probeRng.uniform();

  auto trajectory = [&](ThreadPool* pool) {
    DqnConfig cfg = smallConfig();
    cfg.optimizer = "rmsprop";
    cfg.targetSyncInterval = 3;
    Rng rng(5);
    DqnAgent agent(kDim, 4, cfg, rng, pool);
    EXPECT_TRUE(agent.enableStaticPrefixFold(prefix));
    // Dynamic-width replay rows, as the folded trainer stores them.
    ReplayBuffer replay(64, kDynamic);
    Rng fill(9);
    std::vector<double> s(kDynamic), s2(kDynamic);
    for (int i = 0; i < 48; ++i) {
      for (double& v : s) v = fill.uniform();
      for (double& v : s2) v = fill.uniform();
      replay.push(s, static_cast<int>(fill.uniformInt(4)), fill.uniform(), s2, i % 7 == 0);
    }
    std::vector<double> out;
    Rng learnRng(13);
    for (int step = 0; step < 8; ++step) out.push_back(agent.learn(replay, learnRng));
    for (const nn::Tensor* p : agent.online().parameters()) {
      out.insert(out.end(), p->data(), p->data() + p->size());
    }
    nn::Tensor q;
    agent.target().predict(probe, q);
    out.insert(out.end(), q.data(), q.data() + q.size());
    return out;
  };
  const std::vector<double> serial = trajectory(nullptr);
  ThreadPool pool(4);
  const std::vector<double> pooled = trajectory(&pool);
  ASSERT_EQ(pooled.size(), serial.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) mismatches += pooled[i] != serial[i];
  EXPECT_EQ(mismatches, 0u);
}

TEST(DqnAgentTest, VariantNames) {
  EXPECT_STREQ(dqnVariantName(DqnVariant::kVanilla), "dqn");
  EXPECT_STREQ(dqnVariantName(DqnVariant::kDouble), "double-dqn");
}

}  // namespace
}  // namespace dqndock::rl
