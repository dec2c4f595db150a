// Tests for the reward-construction modes (paper Section 3 design
// decision): the paper's sign-clipped delta, raw delta, clipped delta and
// absolute-score rewards.

#include <gtest/gtest.h>

#include <cmath>

#include "src/chem/synthetic.hpp"
#include "src/metadock/docking_env.hpp"

namespace dqndock::metadock {
namespace {

class RewardModeFixture : public ::testing::Test {
 protected:
  RewardModeFixture() : scenario_(chem::buildScenario(chem::ScenarioSpec::tiny())) {}

  DockingEnv makeEnv(RewardMode mode) {
    EnvConfig cfg;
    cfg.rewardMode = mode;
    return DockingEnv(scenario_, cfg);
  }

  chem::Scenario scenario_;
};

TEST_F(RewardModeFixture, ModeNames) {
  EXPECT_STREQ(rewardModeName(RewardMode::kSignClip), "sign-clip");
  EXPECT_STREQ(rewardModeName(RewardMode::kRawDelta), "raw-delta");
  EXPECT_STREQ(rewardModeName(RewardMode::kClippedDelta), "clipped-delta");
  EXPECT_STREQ(rewardModeName(RewardMode::kAbsolute), "absolute");
}

TEST_F(RewardModeFixture, SignClipIsPaperBehaviour) {
  auto env = makeEnv(RewardMode::kSignClip);
  for (int i = 0; i < 25 && !env.terminated(); ++i) {
    const StepResult r = env.step(4);
    EXPECT_TRUE(r.reward == 1.0 || r.reward == 0.0 || r.reward == -1.0);
    if (r.scoreDelta > 0) {
      EXPECT_DOUBLE_EQ(r.reward, 1.0);
    }
  }
}

TEST_F(RewardModeFixture, RawDeltaEqualsScoreChange) {
  auto env = makeEnv(RewardMode::kRawDelta);
  double prev = env.score();
  for (int i = 0; i < 20 && !env.terminated(); ++i) {
    const StepResult r = env.step(4);
    EXPECT_DOUBLE_EQ(r.reward, r.score - prev);
    prev = r.score;
  }
}

TEST_F(RewardModeFixture, ClippedDeltaBounded) {
  auto env = makeEnv(RewardMode::kClippedDelta);
  // Drive into the receptor: deltas get huge, rewards stay in [-1, 1].
  for (int i = 0; i < 60 && !env.terminated(); ++i) {
    const StepResult r = env.step(4);
    EXPECT_GE(r.reward, -1.0);
    EXPECT_LE(r.reward, 1.0);
    if (std::fabs(r.scoreDelta) < 1.0) {
      EXPECT_DOUBLE_EQ(r.reward, r.scoreDelta);
    }
  }
}

TEST_F(RewardModeFixture, AbsoluteScalesScore) {
  EnvConfig cfg;
  cfg.rewardMode = RewardMode::kAbsolute;
  cfg.rewardScale = 0.01;
  DockingEnv env(scenario_, cfg);
  for (int i = 0; i < 15 && !env.terminated(); ++i) {
    const StepResult r = env.step(4);
    EXPECT_DOUBLE_EQ(r.reward, r.score * 0.01);
  }
}

TEST_F(RewardModeFixture, ModesShareDynamics) {
  // Reward construction must not alter the trajectory itself.
  auto a = makeEnv(RewardMode::kSignClip);
  auto b = makeEnv(RewardMode::kRawDelta);
  for (int i = 0; i < 20 && !a.terminated(); ++i) {
    const StepResult ra = a.step(4);
    const StepResult rb = b.step(4);
    EXPECT_DOUBLE_EQ(ra.score, rb.score);
    EXPECT_EQ(ra.terminal, rb.terminal);
  }
}

}  // namespace
}  // namespace dqndock::metadock
