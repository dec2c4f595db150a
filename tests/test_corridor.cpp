// Corridor MDP mechanics plus the end-to-end learning test: a DQN agent
// trained through the Trainer must learn to walk right.

#include <gtest/gtest.h>

#include "src/rl/corridor_env.hpp"
#include "src/rl/dqn_agent.hpp"
#include "src/rl/trainer.hpp"

namespace dqndock::rl {
namespace {

TEST(CorridorEnvTest, Validation) {
  EXPECT_THROW(CorridorEnv(1), std::invalid_argument);
  CorridorEnv env(5);
  EXPECT_EQ(env.stateDim(), 5u);
  EXPECT_EQ(env.actionCount(), 2);
}

TEST(CorridorEnvTest, ResetEncodesStart) {
  CorridorEnv env(4);
  std::vector<double> s;
  env.reset(s);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  EXPECT_DOUBLE_EQ(s[1] + s[2] + s[3], 0.0);
}

TEST(CorridorEnvTest, WalkRightReachesGoal) {
  CorridorEnv env(4);
  std::vector<double> s;
  env.reset(s);
  EnvStep r = env.step(1, s);
  EXPECT_FALSE(r.terminal);
  EXPECT_DOUBLE_EQ(r.reward, -0.01);
  r = env.step(1, s);
  EXPECT_FALSE(r.terminal);
  r = env.step(1, s);
  EXPECT_TRUE(r.terminal);
  EXPECT_DOUBLE_EQ(r.reward, 1.0);
}

TEST(CorridorEnvTest, SteppingOffLeftEdgeFails) {
  CorridorEnv env(4);
  std::vector<double> s;
  env.reset(s);
  const EnvStep r = env.step(0, s);
  EXPECT_TRUE(r.terminal);
  EXPECT_DOUBLE_EQ(r.reward, -1.0);
}

TEST(CorridorEnvTest, TimeLimitTerminates) {
  CorridorEnv env(8, 6);
  std::vector<double> s;
  env.reset(s);
  EnvStep r;
  // Oscillate without reaching either end.
  for (int i = 0; i < 6; ++i) r = env.step(i % 2 ? 0 : 1, s);
  EXPECT_TRUE(r.terminal);
}

TEST(CorridorEnvTest, BadActionThrows) {
  CorridorEnv env(4);
  std::vector<double> s;
  env.reset(s);
  EXPECT_THROW(env.step(2, s), std::out_of_range);
}

TEST(CorridorIntegrationTest, DqnLearnsToWalkRight) {
  CorridorEnv env(6, 40);
  Rng rng(123);
  DqnConfig agentCfg;
  agentCfg.hiddenSizes = {24, 24};
  agentCfg.batchSize = 16;
  agentCfg.targetSyncInterval = 50;
  agentCfg.optimizer = "adam";
  agentCfg.learningRate = 0.003;
  agentCfg.gamma = 0.95;
  DqnAgent agent(env.stateDim(), env.actionCount(), agentCfg, rng);

  ReplayBuffer replay(5000, env.stateDim());
  TrainerConfig trainCfg;
  trainCfg.episodes = 220;
  trainCfg.learningStart = 200;
  trainCfg.epsilon = EpsilonSchedule(1.0, 0.05, 2e-3, 200);
  trainCfg.seed = 7;
  Trainer trainer(env, agent, replay, replay, trainCfg);
  trainer.run();

  // The greedy policy must reach the right end (total reward close to
  // 1 - 0.01 * steps) on repeated evaluations.
  int successes = 0;
  for (int i = 0; i < 5; ++i) {
    const EpisodeRecord eval = trainer.evaluateGreedy();
    if (eval.totalReward > 0.5) ++successes;
  }
  EXPECT_GE(successes, 4);
}

TEST(CorridorIntegrationTest, MetricsPopulatedDuringTraining) {
  CorridorEnv env(5, 20);
  Rng rng(9);
  DqnConfig agentCfg;
  agentCfg.hiddenSizes = {8};
  agentCfg.batchSize = 4;
  DqnAgent agent(env.stateDim(), env.actionCount(), agentCfg, rng);
  ReplayBuffer replay(500, env.stateDim());
  TrainerConfig trainCfg;
  trainCfg.episodes = 10;
  trainCfg.learningStart = 20;
  trainCfg.seed = 5;
  Trainer trainer(env, agent, replay, replay, trainCfg);
  int callbacks = 0;
  trainer.setEpisodeCallback([&callbacks](const EpisodeRecord&) { ++callbacks; });
  const MetricsLog& log = trainer.run();
  EXPECT_EQ(log.size(), 10u);
  EXPECT_EQ(callbacks, 10);
  EXPECT_GT(trainer.globalStep(), 0u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log.records()[i].episode, i);
    EXPECT_GT(log.records()[i].steps, 0u);
  }
}

}  // namespace
}  // namespace dqndock::rl
