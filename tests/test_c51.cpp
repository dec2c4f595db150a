// Tests for the categorical (C51) distributional DQN agent.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/nn/tensor.hpp"
#include "src/rl/c51_agent.hpp"
#include "src/rl/corridor_env.hpp"
#include "src/rl/schedule.hpp"

namespace dqndock::rl {
namespace {

C51Config smallConfig() {
  C51Config cfg;
  cfg.hiddenSizes = {24};
  cfg.batchSize = 8;
  cfg.atoms = 21;
  cfg.vMin = -2.0;
  cfg.vMax = 2.0;
  cfg.optimizer = "adam";
  cfg.learningRate = 0.005;
  cfg.targetSyncInterval = 25;
  return cfg;
}

/// The per-block softmax as C51Agent wrote it out before softmaxAtoms:
/// a running std::max for the shift, then exp and sum in atom order.
void referenceSoftmax(const double* logits, std::size_t atoms, double* probs) {
  double maxLogit = logits[0];
  for (std::size_t i = 1; i < atoms; ++i) maxLogit = std::max(maxLogit, logits[i]);
  double sum = 0.0;
  for (std::size_t i = 0; i < atoms; ++i) {
    const double e = std::exp(logits[i] - maxLogit);
    probs[i] = e;
    sum += e;
  }
  for (std::size_t i = 0; i < atoms; ++i) probs[i] /= sum;
}

TEST(C51AgentTest, SoftmaxAtomsIsEveryBlockOfSoftmaxBlocks) {
  // learn() softmaxes only the taken action's block through softmaxAtoms,
  // while target rows and Q-values go through softmaxBlocks: a block must
  // come out bitwise the same either way, and as the old loop made it.
  const std::size_t atoms = 51, actions = 12, rows = 3;
  Rng rng(42);
  nn::Tensor random(rows, actions * atoms), huge(rows, actions * atoms),
      tied(rows, actions * atoms);
  for (std::size_t i = 0; i < random.size(); ++i) {
    random.flat()[i] = 4.0 * rng.gaussian();
    // Far past exp's range either way: only the shift by the max keeps
    // the block finite, and most entries underflow to 0.
    huge.flat()[i] = (i % 3 == 0 ? 1e300 : 800.0) * rng.gaussian();
    // Whole blocks of one value, or several entries tied at the max.
    tied.flat()[i] = (i / atoms) % 2 == 0 ? 1.5 : static_cast<double>(i % 4);
  }
  for (const nn::Tensor* logits : {&random, &huge, &tied}) {
    nn::Tensor probs;
    softmaxBlocks(*logits, atoms, probs);
    ASSERT_TRUE(probs.sameShape(*logits));
    std::vector<double> one(atoms), ref(atoms);
    for (std::size_t base = 0; base < logits->size(); base += atoms) {
      softmaxAtoms(logits->data() + base, atoms, one.data());
      referenceSoftmax(logits->data() + base, atoms, ref.data());
      EXPECT_EQ(std::memcmp(one.data(), probs.data() + base, atoms * sizeof(double)), 0)
          << "block " << base / atoms;
      EXPECT_EQ(std::memcmp(one.data(), ref.data(), atoms * sizeof(double)), 0)
          << "block " << base / atoms;
      EXPECT_TRUE(std::all_of(one.begin(), one.end(), [](double p) { return std::isfinite(p); }));
    }
  }
}

TEST(C51AgentTest, ConstructionValidation) {
  Rng rng(1);
  EXPECT_THROW(C51Agent(2, 0, smallConfig(), rng), std::invalid_argument);
  C51Config badAtoms = smallConfig();
  badAtoms.atoms = 1;
  EXPECT_THROW(C51Agent(2, 2, badAtoms, rng), std::invalid_argument);
  C51Config badRange = smallConfig();
  badRange.vMax = badRange.vMin;
  EXPECT_THROW(C51Agent(2, 2, badRange, rng), std::invalid_argument);
}

TEST(C51AgentTest, SupportSpansRangeUniformly) {
  Rng rng(2);
  C51Agent agent(2, 2, smallConfig(), rng);
  const auto& z = agent.support();
  ASSERT_EQ(z.size(), 21u);
  EXPECT_DOUBLE_EQ(z.front(), -2.0);
  EXPECT_DOUBLE_EQ(z.back(), 2.0);
  for (std::size_t i = 1; i < z.size(); ++i) {
    EXPECT_NEAR(z[i] - z[i - 1], 0.2, 1e-12);
  }
}

TEST(C51AgentTest, DistributionsAreNormalized) {
  Rng rng(3);
  C51Agent agent(3, 4, smallConfig(), rng);
  const std::vector<double> s{0.5, -0.5, 1.0};
  for (int a = 0; a < 4; ++a) {
    const auto dist = agent.distribution(s, a);
    ASSERT_EQ(dist.size(), 21u);
    const double sum = std::accumulate(dist.begin(), dist.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    for (double p : dist) EXPECT_GE(p, 0.0);
  }
  EXPECT_THROW(agent.distribution(s, 4), std::out_of_range);
}

TEST(C51AgentTest, ExpectedQWithinSupportBounds) {
  Rng rng(4);
  C51Agent agent(3, 4, smallConfig(), rng);
  const std::vector<double> s{1.0, 2.0, -1.0};
  const auto q = agent.expectedQ(s);
  for (double v : q) {
    EXPECT_GE(v, -2.0);
    EXPECT_LE(v, 2.0);
  }
  EXPECT_DOUBLE_EQ(agent.maxQ(s), *std::max_element(q.begin(), q.end()));
}

TEST(C51AgentTest, QValuesBatchRowsMatchExpectedQ) {
  // Every batched row is the one-row expectedQ bit for bit, at any batch
  // height, folded or not, serial or pooled (24 x 20,000 is wide enough
  // for the pool to take part in the fold). Each mean is also the sum of
  // distribution() x support, atom by atom in support order.
  const std::size_t kDim = 20000, kStatic = 19900;
  const int kActions = 3;
  Rng prefixRng(43);
  std::vector<double> prefix(kStatic);
  for (double& v : prefix) v = prefixRng.uniform(-1.0, 1.0);
  ThreadPool pool(4);
  for (const bool fold : {false, true}) {
    for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
      Rng rng(9);
      C51Agent agent(kDim, kActions, smallConfig(), rng, threads);
      if (fold) {
        ASSERT_TRUE(agent.enableStaticPrefixFold(prefix));
      }
      const std::size_t width = fold ? kDim - kStatic : kDim;
      for (const std::size_t rows : {1u, 3u, 32u}) {
        nn::Tensor states(rows, width);
        Rng fill(rows);
        for (double& v : states.flat()) v = fill.uniform(-1.0, 1.0);
        nn::Tensor q;
        agent.qValuesBatch(states, q);
        ASSERT_EQ(q.rows(), rows);
        ASSERT_EQ(q.cols(), static_cast<std::size_t>(kActions));
        for (std::size_t r = 0; r < rows; ++r) {
          const std::vector<double> one = agent.expectedQ(states.row(r));
          for (int a = 0; a < kActions; ++a) {
            const double got = q(r, static_cast<std::size_t>(a));
            EXPECT_EQ(got, one[static_cast<std::size_t>(a)])
                << "fold " << fold << ", pool " << (threads != nullptr) << ", " << rows
                << " rows, row " << r << ", action " << a;
            const std::vector<double> dist = agent.distribution(states.row(r), a);
            double mean = 0.0;
            for (std::size_t i = 0; i < dist.size(); ++i) mean += dist[i] * agent.support()[i];
            EXPECT_EQ(got, mean) << "fold " << fold << ", " << rows << " rows, row " << r
                                 << ", action " << a;
          }
        }
      }
    }
  }
}

TEST(C51AgentTest, LearnsTerminalRewardDistribution) {
  // Fixed problem: action 0 always pays +1 terminally, action 1 pays 0.
  Rng rng(5);
  C51Agent agent(2, 2, smallConfig(), rng);
  ReplayBuffer rb(512, 2);
  const std::vector<double> s{1.0, 0.0};
  for (int i = 0; i < 256; ++i) {
    const bool good = i % 2 == 0;
    rb.push(s, good ? 0 : 1, good ? 1.0 : 0.0, s, true);
  }
  for (int i = 0; i < 800; ++i) agent.learn(rb, rng);

  const auto q = agent.expectedQ(s);
  EXPECT_NEAR(q[0], 1.0, 0.25);
  EXPECT_NEAR(q[1], 0.0, 0.25);
  EXPECT_EQ(agent.greedyAction(s), 0);

  // The learned distribution for action 0 must concentrate near +1.
  const auto dist = agent.distribution(s, 0);
  const auto& z = agent.support();
  double massNearOne = 0.0;
  for (std::size_t i = 0; i < dist.size(); ++i) {
    if (std::fabs(z[i] - 1.0) < 0.35) massNearOne += dist[i];
  }
  EXPECT_GT(massNearOne, 0.5);
}

TEST(C51AgentTest, TargetSyncCadence) {
  Rng rng(6);
  C51Config cfg = smallConfig();
  cfg.targetSyncInterval = 5;
  C51Agent agent(2, 2, cfg, rng);
  ReplayBuffer rb(64, 2);
  const std::vector<double> s{1.0, 0.0};
  for (int i = 0; i < 32; ++i) rb.push(s, 0, 1.0, s, true);
  for (int i = 0; i < 12; ++i) agent.learn(rb, rng);
  EXPECT_EQ(agent.learnSteps(), 12u);
}

TEST(C51AgentTest, FoldedLearnTrajectoryBitIdenticalWithAndWithoutPool) {
  // C51 steps its folded input layer through the same row-split
  // optimizer update as DQN (24 x 20,000 is wide enough to split): a
  // pooled agent's losses and learned distributions, through two target
  // syncs, match the serial agent's bit for bit.
  const std::size_t kDim = 20000, kStatic = 19900, kDynamic = kDim - kStatic;
  Rng prefixRng(41);
  std::vector<double> prefix(kStatic);
  for (double& v : prefix) v = prefixRng.uniform(-1.0, 1.0);

  auto trajectory = [&](ThreadPool* pool) {
    C51Config cfg = smallConfig();
    cfg.targetSyncInterval = 3;
    Rng rng(8);
    C51Agent agent(kDim, 3, cfg, rng, pool);
    EXPECT_TRUE(agent.enableStaticPrefixFold(prefix));
    // Dynamic-width replay rows, as the folded trainer stores them.
    ReplayBuffer rb(64, kDynamic);
    Rng fill(11);
    std::vector<double> s(kDynamic), s2(kDynamic);
    for (int i = 0; i < 48; ++i) {
      for (double& v : s) v = fill.uniform();
      for (double& v : s2) v = fill.uniform();
      rb.push(s, static_cast<int>(fill.uniformInt(3)), fill.uniform(-1.0, 1.0), s2, i % 5 == 0);
    }
    std::vector<double> out;
    Rng learnRng(17);
    for (int step = 0; step < 8; ++step) out.push_back(agent.learn(rb, learnRng));
    Rng probeRng(19);
    for (int p = 0; p < 3; ++p) {
      for (double& v : s) v = probeRng.uniform();
      for (int a = 0; a < 3; ++a) {
        const std::vector<double> d = agent.distribution(s, a);
        out.insert(out.end(), d.begin(), d.end());
      }
    }
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

TEST(C51AgentTest, SolvesCorridor) {
  CorridorEnv env(6, 40);
  Rng rng(7);
  C51Config cfg = smallConfig();
  cfg.gamma = 0.95;
  C51Agent agent(env.stateDim(), env.actionCount(), cfg, rng);
  ReplayBuffer replay(5000, env.stateDim());
  EpsilonSchedule eps(1.0, 0.05, 2e-3, 200);

  std::vector<double> state, next;
  std::size_t step = 0;
  for (int episode = 0; episode < 250; ++episode) {
    env.reset(state);
    bool terminal = false;
    while (!terminal) {
      const int action = agent.selectAction(state, eps.value(step), rng);
      const EnvStep r = env.step(action, next);
      replay.push(state, action, r.reward, next, r.terminal);
      state = next;
      terminal = r.terminal;
      ++step;
      if (step > 200) agent.learn(replay, rng);
    }
  }

  // Greedy policy reaches the goal.
  int successes = 0;
  for (int trial = 0; trial < 5; ++trial) {
    env.reset(state);
    double total = 0.0;
    for (int t = 0; t < 40; ++t) {
      const EnvStep r = env.step(agent.greedyAction(state), next);
      total += r.reward;
      state = next;
      if (r.terminal) break;
    }
    if (total > 0.5) ++successes;
  }
  EXPECT_GE(successes, 4);
}

}  // namespace
}  // namespace dqndock::rl
