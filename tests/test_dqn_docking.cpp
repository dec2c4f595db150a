// Integration tests for the DQN-Docking facade: full (scaled) training
// runs through the real METADOCK environment.

#include <gtest/gtest.h>

#include "src/core/dqn_docking.hpp"

namespace dqndock::core {
namespace {

DqnDockingConfig fastConfig() {
  DqnDockingConfig cfg = DqnDockingConfig::scaled();
  cfg.trainer.episodes = 8;
  cfg.env.maxSteps = 40;
  cfg.trainer.learningStart = 60;
  cfg.agent.hiddenSizes = {24, 24};
  return cfg;
}

TEST(ConfigTest, Paper2bsmMatchesTable1) {
  const DqnDockingConfig cfg = DqnDockingConfig::paper2bsm();
  EXPECT_EQ(cfg.trainer.episodes, 1800u);
  EXPECT_EQ(cfg.env.maxSteps, 1000);
  EXPECT_DOUBLE_EQ(cfg.env.shiftStep, 1.0);
  EXPECT_DOUBLE_EQ(cfg.env.rotateStepDeg, 0.5);
  EXPECT_DOUBLE_EQ(cfg.trainer.epsilon.start(), 1.0);
  EXPECT_DOUBLE_EQ(cfg.trainer.epsilon.end(), 0.05);
  EXPECT_EQ(cfg.trainer.epsilon.pureExplorationSteps(), 20000u);
  EXPECT_EQ(cfg.trainer.learningStart, 10000u);
  EXPECT_EQ(cfg.replayCapacity, 400000u);
  EXPECT_EQ(cfg.agent.targetSyncInterval, 1000u);
  EXPECT_DOUBLE_EQ(cfg.agent.gamma, 0.99);
  EXPECT_DOUBLE_EQ(cfg.agent.learningRate, 0.00025);
  EXPECT_EQ(cfg.agent.batchSize, 32u);
  EXPECT_EQ(cfg.agent.optimizer, "rmsprop");
  ASSERT_EQ(cfg.agent.hiddenSizes.size(), 2u);
  EXPECT_EQ(cfg.agent.hiddenSizes[0], 135u);
  EXPECT_DOUBLE_EQ(cfg.env.scoreFloor, -100000.0);
  EXPECT_EQ(cfg.env.floorPatience, 20);
}

TEST(DqnDockingTest, BuildsWithScaledConfig) {
  DqnDocking system(fastConfig());
  EXPECT_EQ(system.actionCount(), 12);
  EXPECT_EQ(system.stateDim(), 3 * system.scenario().ligand.atomCount());
  EXPECT_GT(system.replayMemoryBytes(), 0u);
}

TEST(DqnDockingTest, TrainingProducesMetrics) {
  DqnDocking system(fastConfig());
  const rl::MetricsLog& log = system.train();
  ASSERT_EQ(log.size(), 8u);
  for (const auto& r : log.records()) {
    EXPECT_GT(r.steps, 0u);
    EXPECT_LE(r.steps, 40u);
  }
}

TEST(DqnDockingTest, IncrementalEpisodesAppend) {
  DqnDocking system(fastConfig());
  system.trainEpisode();
  system.trainEpisode();
  EXPECT_EQ(system.metrics().size(), 2u);
}

TEST(DqnDockingTest, GreedyEvaluationRunsWithoutLearning) {
  DqnDocking system(fastConfig());
  system.trainEpisode();
  const std::size_t stepsBefore = system.trainer().globalStep();
  const rl::EpisodeRecord eval = system.evaluateGreedy();
  EXPECT_GT(eval.steps, 0u);
  EXPECT_DOUBLE_EQ(eval.epsilon, 0.0);
  EXPECT_EQ(system.trainer().globalStep(), stepsBefore);  // no training steps
  EXPECT_EQ(system.metrics().size(), 1u);                 // not recorded
}

TEST(DqnDockingTest, DeterministicAcrossRuns) {
  DqnDockingConfig cfg = fastConfig();
  cfg.trainer.episodes = 3;
  DqnDocking a(cfg);
  DqnDocking b(cfg);
  const auto& logA = a.train();
  const auto& logB = b.train();
  ASSERT_EQ(logA.size(), logB.size());
  for (std::size_t i = 0; i < logA.size(); ++i) {
    EXPECT_EQ(logA.records()[i].steps, logB.records()[i].steps);
    EXPECT_DOUBLE_EQ(logA.records()[i].totalReward, logB.records()[i].totalReward);
    EXPECT_DOUBLE_EQ(logA.records()[i].avgMaxQ, logB.records()[i].avgMaxQ);
  }
}

TEST(DqnDockingTest, RawAndCompactReplayBothTrain) {
  for (bool compact : {false, true}) {
    DqnDockingConfig cfg = fastConfig();
    cfg.compactReplay = compact;
    cfg.trainer.episodes = 3;
    DqnDocking system(cfg);
    EXPECT_NO_THROW(system.train()) << "compact=" << compact;
    EXPECT_EQ(system.metrics().size(), 3u);
  }
}

TEST(DqnDockingTest, CompactReplayUsesLessMemoryAtScale) {
  DqnDockingConfig raw = fastConfig();
  raw.compactReplay = false;
  raw.replayCapacity = 5000;
  DqnDockingConfig compact = raw;
  compact.compactReplay = true;
  DqnDocking a(raw);
  DqnDocking b(compact);
  EXPECT_GT(a.replayMemoryBytes(), b.replayMemoryBytes());
}

TEST(DqnDockingTest, FlexibleLigandActionSpace) {
  DqnDockingConfig cfg = fastConfig();
  cfg.env.flexibleLigand = true;
  DqnDocking system(cfg);
  int rotatable = 0;
  for (const auto& bond : system.scenario().ligand.bonds()) rotatable += bond.rotatable;
  EXPECT_EQ(system.actionCount(), 12 + rotatable);
  cfg.trainer.episodes = 2;
  EXPECT_NO_THROW(system.trainEpisode());
}

TEST(DqnDockingTest, PrioritizedReplayTrains) {
  DqnDockingConfig cfg = fastConfig();
  cfg.compactReplay = false;
  cfg.prioritizedReplay = true;
  cfg.trainer.episodes = 3;
  DqnDocking system(cfg);
  EXPECT_NO_THROW(system.train());
  EXPECT_EQ(system.metrics().size(), 3u);
}

TEST(DqnDockingTest, NStepReturnsTrain) {
  DqnDockingConfig cfg = fastConfig();
  cfg.compactReplay = false;
  cfg.nStep = 3;
  cfg.trainer.episodes = 3;
  DqnDocking system(cfg);
  EXPECT_NO_THROW(system.train());
  EXPECT_EQ(system.agent().config().nStep, 3);
}

TEST(DqnDockingTest, InvalidReplayCombinationsRejected) {
  DqnDockingConfig both = fastConfig();
  both.compactReplay = true;
  both.prioritizedReplay = true;
  EXPECT_THROW(DqnDocking{both}, std::invalid_argument);

  DqnDockingConfig badN = fastConfig();
  badN.nStep = 0;
  EXPECT_THROW(DqnDocking{badN}, std::invalid_argument);

  DqnDockingConfig compactN = fastConfig();
  compactN.compactReplay = true;
  compactN.nStep = 2;
  EXPECT_THROW(DqnDocking{compactN}, std::invalid_argument);
}

TEST(DqnDockingTest, CallerProvidedScenario) {
  DqnDockingConfig cfg = fastConfig();
  chem::Scenario scenario = chem::buildScenario(chem::ScenarioSpec::tiny());
  DqnDocking system(cfg, std::move(scenario));
  EXPECT_EQ(system.actionCount(), 12);
  EXPECT_NO_THROW(system.trainEpisode());
}

TEST(DqnDockingTest, VariantsTrainOnDockingTask) {
  for (auto variant : {rl::DqnVariant::kVanilla, rl::DqnVariant::kDouble}) {
    DqnDockingConfig cfg = fastConfig();
    cfg.agent.variant = variant;
    cfg.trainer.episodes = 2;
    DqnDocking system(cfg);
    EXPECT_NO_THROW(system.train()) << rl::dqnVariantName(variant);
  }
  DqnDockingConfig cfg = fastConfig();
  cfg.agent.dueling = true;
  cfg.trainer.episodes = 2;
  DqnDocking system(cfg);
  EXPECT_NO_THROW(system.train());
}

TEST(DqnDockingTest, DuelingFoldsTheReceptorBlockOfFullStates) {
  // The dueling head runs on the same nn::Mlp as the paper's net, so it
  // folds the constant receptor prefix of a full-with-bonds state too.
  DqnDockingConfig cfg = fastConfig();
  cfg.agent.dueling = true;
  cfg.stateMode = StateMode::kFullWithBonds;
  cfg.foldStatic = true;
  cfg.trainer.episodes = 2;
  DqnDocking system(cfg);
  EXPECT_TRUE(system.foldActive());
  EXPECT_TRUE(system.agent().target().foldActive());
  EXPECT_NO_THROW(system.train());
  EXPECT_EQ(system.metrics().size(), 2u);
}

}  // namespace
}  // namespace dqndock::core
