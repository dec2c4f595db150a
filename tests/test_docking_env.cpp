// Tests for the DQN-Docking environment: action semantics, reward
// clipping, and the paper's three termination rules.

#include <gtest/gtest.h>

#include <cmath>

#include "src/chem/synthetic.hpp"
#include "src/metadock/docking_env.hpp"

namespace dqndock::metadock {
namespace {

class DockingEnvFixture : public ::testing::Test {
 protected:
  DockingEnvFixture() : scenario_(chem::buildScenario(chem::ScenarioSpec::tiny())) {}

  DockingEnv makeEnv(EnvConfig cfg = {}) { return DockingEnv(scenario_, cfg); }

  chem::Scenario scenario_;
};

TEST_F(DockingEnvFixture, TwelveActionsRigid) {
  auto env = makeEnv();
  EXPECT_EQ(env.actionCount(), 12);  // paper Table 1
}

TEST_F(DockingEnvFixture, FlexibleModeAddsTorsionActions) {
  EnvConfig cfg;
  cfg.flexibleLigand = true;
  auto env = makeEnv(cfg);
  int rotatable = 0;
  for (const auto& b : scenario_.ligand.bonds()) rotatable += b.rotatable;
  EXPECT_EQ(env.actionCount(), 12 + rotatable);  // paper Section 5: 12 + K
}

TEST_F(DockingEnvFixture, ResetRestoresInitialState) {
  auto env = makeEnv();
  const double s0 = env.score();
  const auto p0 = env.ligandPositions();
  const std::vector<Vec3> initial(p0.begin(), p0.end());
  env.step(0);
  env.step(2);
  const double s1 = env.reset();
  EXPECT_DOUBLE_EQ(s1, s0);
  EXPECT_EQ(env.stepCount(), 0);
  const auto p1 = env.ligandPositions();
  for (std::size_t i = 0; i < initial.size(); ++i) {
    EXPECT_NEAR(distance(initial[i], p1[i]), 0.0, 1e-12);
  }
}

TEST_F(DockingEnvFixture, TranslationActionsMoveByShiftStep) {
  EnvConfig cfg;
  cfg.shiftStep = 2.5;
  auto env = makeEnv(cfg);
  const auto before = std::vector<Vec3>(env.ligandPositions().begin(),
                                        env.ligandPositions().end());
  env.step(1);  // +x
  const auto after = env.ligandPositions();
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(after[i].x - before[i].x, 2.5, 1e-12);
    EXPECT_NEAR(after[i].y - before[i].y, 0.0, 1e-12);
    EXPECT_NEAR(after[i].z - before[i].z, 0.0, 1e-12);
  }
}

TEST_F(DockingEnvFixture, OppositeTranslationsCancel) {
  auto env = makeEnv();
  const auto before = std::vector<Vec3>(env.ligandPositions().begin(),
                                        env.ligandPositions().end());
  env.step(3);  // +y
  env.step(2);  // -y
  const auto after = env.ligandPositions();
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(distance(before[i], after[i]), 0.0, 1e-12);
  }
}

TEST_F(DockingEnvFixture, RotationActionsPreserveShapeAndCentroid) {
  EnvConfig cfg;
  cfg.rotateStepDeg = 15.0;  // bigger angle to make motion visible
  auto env = makeEnv(cfg);
  const auto before = std::vector<Vec3>(env.ligandPositions().begin(),
                                        env.ligandPositions().end());
  env.step(7);  // +x rotation
  const auto after = env.ligandPositions();
  // Internal distances preserved.
  for (std::size_t i = 0; i < before.size(); ++i) {
    for (std::size_t j = i + 1; j < before.size(); ++j) {
      EXPECT_NEAR(distance(after[i], after[j]), distance(before[i], before[j]), 1e-9);
    }
  }
  // Centroid stays fixed (rotation about ligand centroid).
  Vec3 cb, ca;
  for (std::size_t i = 0; i < before.size(); ++i) {
    cb += before[i];
    ca += after[i];
  }
  EXPECT_NEAR(distance(cb, ca) / static_cast<double>(before.size()), 0.0, 1e-9);
}

TEST_F(DockingEnvFixture, RewardIsSignOfScoreChange) {
  auto env = makeEnv();
  // Moving toward the receptor (pocket is along -z from the start pose)
  // eventually improves the score; any single step reward must be one of
  // {-1, 0, +1} and consistent with scoreDelta.
  for (int i = 0; i < 30 && !env.terminated(); ++i) {
    const auto r = env.step(4);
    if (r.scoreDelta > 0) {
      EXPECT_DOUBLE_EQ(r.reward, 1.0);
    }
    if (r.scoreDelta < 0) {
      EXPECT_DOUBLE_EQ(r.reward, -1.0);
    }
    if (r.scoreDelta == 0) {
      EXPECT_DOUBLE_EQ(r.reward, 0.0);
    }
  }
}

TEST_F(DockingEnvFixture, BoundaryTerminationWhenWanderingAway) {
  auto env = makeEnv();
  StepResult last;
  for (int i = 0; i < 200 && !env.terminated(); ++i) last = env.step(5);  // +z away
  EXPECT_TRUE(env.terminated());
  EXPECT_EQ(env.terminationReason(), Termination::kBoundary);
  EXPECT_TRUE(last.terminal);
}

TEST_F(DockingEnvFixture, TimeLimitTermination) {
  EnvConfig cfg;
  cfg.maxSteps = 5;
  auto env = makeEnv(cfg);
  StepResult last;
  // Oscillate in place: +x then -x never hits the boundary.
  for (int i = 0; i < 5; ++i) last = env.step(i % 2);
  EXPECT_TRUE(last.terminal);
  EXPECT_EQ(last.reason, Termination::kTimeLimit);
}

TEST_F(DockingEnvFixture, ScoreFloorTermination) {
  EnvConfig cfg;
  cfg.floorPatience = 3;
  cfg.scoreFloor = -1e5;
  cfg.boundaryFactor = 100.0;  // don't trip the boundary first
  auto env = makeEnv(cfg);
  // Drive the ligand straight through the receptor center: sustained
  // deep-clash scores trip the floor rule.
  StepResult last;
  for (int i = 0; i < 300 && !env.terminated(); ++i) last = env.step(4);  // -z
  EXPECT_TRUE(env.terminated());
  EXPECT_EQ(env.terminationReason(), Termination::kScoreFloor);
}

TEST_F(DockingEnvFixture, SuccessTerminationWhenReachingCrystal) {
  EnvConfig cfg;
  cfg.successRmsd = 1e6;  // any pose counts: first step must succeed
  cfg.successReward = 7.5;
  auto env = makeEnv(cfg);
  const StepResult r = env.step(0);
  EXPECT_TRUE(r.terminal);
  EXPECT_EQ(r.reason, Termination::kSuccess);
  EXPECT_DOUBLE_EQ(r.reward, 7.5);
  EXPECT_STREQ(terminationName(Termination::kSuccess), "success");
}

TEST_F(DockingEnvFixture, SuccessRuleDisabledByDefault) {
  auto env = makeEnv();  // successRmsd = 0: the paper's configuration
  const StepResult r = env.step(4);
  EXPECT_NE(r.reason, Termination::kSuccess);
}

TEST_F(DockingEnvFixture, StepAfterTerminalThrows) {
  EnvConfig cfg;
  cfg.maxSteps = 1;
  auto env = makeEnv(cfg);
  env.step(0);
  EXPECT_THROW(env.step(0), std::logic_error);
  env.reset();
  EXPECT_NO_THROW(env.step(0));
}

TEST_F(DockingEnvFixture, InvalidActionThrows) {
  auto env = makeEnv();
  EXPECT_THROW(env.step(-1), std::out_of_range);
  EXPECT_THROW(env.step(12), std::out_of_range);
}

TEST_F(DockingEnvFixture, TorsionActionOnlyInFlexibleMode) {
  EnvConfig cfg;
  cfg.flexibleLigand = true;
  auto env = makeEnv(cfg);
  ASSERT_GT(env.actionCount(), 12);
  EXPECT_NO_THROW(env.step(12));
  EXPECT_NE(env.pose().torsions[0], 0.0);
}

TEST_F(DockingEnvFixture, DeterministicTrajectories) {
  auto env1 = makeEnv();
  auto env2 = makeEnv();
  const int actions[] = {4, 4, 7, 1, 4, 9, 4, 0};
  for (int a : actions) {
    const auto r1 = env1.step(a);
    const auto r2 = env2.step(a);
    EXPECT_DOUBLE_EQ(r1.score, r2.score);
    EXPECT_DOUBLE_EQ(r1.reward, r2.reward);
  }
}

TEST_F(DockingEnvFixture, SetPoseRestoresState) {
  auto env = makeEnv();
  env.step(4);
  env.step(4);
  const Pose saved = env.pose();
  const double savedScore = env.score();
  env.reset();
  env.setPose(saved);
  EXPECT_DOUBLE_EQ(env.score(), savedScore);
}

TEST_F(DockingEnvFixture, RmsdToCrystalDecreasesApproachingPocket) {
  auto env = makeEnv();
  const double before = env.rmsdToCrystal();
  for (int i = 0; i < 10 && !env.terminated(); ++i) env.step(4);  // toward pocket
  EXPECT_LT(env.rmsdToCrystal(), before);
}

TEST_F(DockingEnvFixture, CrystalScoreBeatsInitial) {
  auto env = makeEnv();
  EXPECT_GT(env.crystalScore(), env.score());
}

TEST_F(DockingEnvFixture, EvaluationCountAdvances) {
  auto env = makeEnv();
  const std::size_t base = env.evaluationCount();
  env.step(0);
  env.step(1);
  EXPECT_EQ(env.evaluationCount(), base + 2);
}

}  // namespace
}  // namespace dqndock::metadock
