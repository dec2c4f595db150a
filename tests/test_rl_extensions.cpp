// Tests for the RL extensions: Boltzmann exploration, Polyak target
// updates and policy evaluation.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/evaluation.hpp"

namespace dqndock {
namespace {

using rl::DqnAgent;
using rl::DqnConfig;

DqnConfig tinyAgent() {
  DqnConfig cfg;
  cfg.hiddenSizes = {12};
  cfg.batchSize = 4;
  return cfg;
}

TEST(SoftmaxExplorationTest, ZeroTemperatureIsGreedy) {
  Rng rng(1);
  DqnAgent agent(3, 4, tinyAgent(), rng);
  const std::vector<double> s{1.0, -1.0, 0.5};
  const int greedy = agent.greedyAction(s);
  Rng actRng(2);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(agent.selectActionSoftmax(s, 0.0, actRng), greedy);
  }
}

TEST(SoftmaxExplorationTest, HighTemperatureApproachesUniform) {
  Rng rng(3);
  DqnAgent agent(3, 4, tinyAgent(), rng);
  const std::vector<double> s{1.0, -1.0, 0.5};
  Rng actRng(4);
  std::vector<int> hits(4, 0);
  const int n = 8000;
  for (int i = 0; i < n; ++i) ++hits[static_cast<std::size_t>(agent.selectActionSoftmax(s, 1e6, actRng))];
  for (int a = 0; a < 4; ++a) {
    EXPECT_NEAR(hits[static_cast<std::size_t>(a)] / static_cast<double>(n), 0.25, 0.03);
  }
}

TEST(SoftmaxExplorationTest, ModerateTemperatureFavoursHighQ) {
  Rng rng(5);
  DqnAgent agent(3, 4, tinyAgent(), rng);
  const std::vector<double> s{1.0, -1.0, 0.5};
  const int greedy = agent.greedyAction(s);
  Rng actRng(6);
  int greedyHits = 0;
  const int n = 4000;
  // Use a temperature comparable to the Q spread so ordering matters.
  const auto q = agent.qValues(s);
  const double spread = *std::max_element(q.begin(), q.end()) -
                        *std::min_element(q.begin(), q.end());
  for (int i = 0; i < n; ++i) {
    if (agent.selectActionSoftmax(s, std::max(1e-6, spread / 4), actRng) == greedy) ++greedyHits;
  }
  EXPECT_GT(greedyHits, n / 4);  // strictly above uniform share
}

TEST(PolyakTest, SoftUpdatesTrackOnline) {
  Rng rng(7);
  DqnConfig cfg = tinyAgent();
  cfg.polyakTau = 0.5;
  cfg.batchSize = 2;
  cfg.optimizer = "sgd";
  cfg.learningRate = 0.05;
  DqnAgent agent(2, 2, cfg, rng);
  rl::ReplayBuffer rb(16, 2);
  const std::vector<double> s{1.0, 0.0};
  for (int i = 0; i < 8; ++i) rb.push(s, 0, 1.0, s, true);

  nn::Tensor x(1, 2);
  x(0, 0) = 1.0;
  nn::Tensor qOnline, qTarget;
  for (int i = 0; i < 30; ++i) agent.learn(rb, rng);
  agent.online().predict(x, qOnline);
  agent.target().predict(x, qTarget);
  // With tau = 0.5 per step the target lags but stays near the online
  // network; with hard C-sync disabled they would only match at syncs.
  for (std::size_t i = 0; i < qOnline.size(); ++i) {
    EXPECT_NEAR(qTarget.flat()[i], qOnline.flat()[i], 0.2);
  }
}

TEST(EvaluationTest, ReportsCoherentMetrics) {
  core::DqnDockingConfig cfg = core::DqnDockingConfig::scaled();
  cfg.trainer.episodes = 2;
  cfg.env.maxSteps = 30;
  core::DqnDocking system(cfg);
  system.train();

  core::EvaluationOptions opts;
  opts.episodes = 3;
  const core::EvaluationReport report = core::evaluatePolicy(system, opts);
  EXPECT_EQ(report.episodes, 3u);
  EXPECT_LE(report.successes, report.episodes);
  EXPECT_DOUBLE_EQ(report.successRate,
                   static_cast<double>(report.successes) / report.episodes);
  EXPECT_GT(report.scoringEvaluations, 0u);
  EXPECT_GE(report.bestScore, report.meanEpisodeScore - 1e-9);
  EXPECT_GE(report.bestRmsd, 0.0);
}

TEST(EvaluationTest, GenerousSuccessRadiusAlwaysSucceeds) {
  core::DqnDockingConfig cfg = core::DqnDockingConfig::scaled();
  cfg.trainer.episodes = 1;
  cfg.env.maxSteps = 10;
  core::DqnDocking system(cfg);
  system.trainEpisode();
  core::EvaluationOptions opts;
  opts.episodes = 2;
  opts.successRmsd = 1e6;  // everything counts
  const auto report = core::evaluatePolicy(system, opts);
  EXPECT_EQ(report.successes, 2u);
  EXPECT_DOUBLE_EQ(report.successRate, 1.0);
}

}  // namespace
}  // namespace dqndock
