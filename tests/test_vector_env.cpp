// Training-loop guards: the trainer's one lockstep loop must reproduce
// the paper's Algorithm 2 (a test-local copy of its one-env loop) bit for
// bit at V=1 (episode records, replay contents, online and target
// weights); DockingVectorEnv at V=1 must reproduce a run on the task; and
// V>1 runs must be deterministic across repeat runs and across thread
// counts. Also pins down which VectorEnv implementation batches its
// scoring (`batchedSteps`), and that each episode record carries the
// env's termination reason.

#include <gtest/gtest.h>

#include "src/common/running_stats.hpp"
#include "src/core/dqn_docking.hpp"
#include "src/core/docking_vector_env.hpp"
#include "src/core/pose_replay.hpp"
#include "src/rl/corridor_env.hpp"
#include "src/rl/trainer.hpp"
#include "src/rl/vector_env.hpp"

namespace dqndock {
namespace {

core::DqnDockingConfig fastRawConfig() {
  core::DqnDockingConfig cfg = core::DqnDockingConfig::scaled();
  cfg.compactReplay = false;  // vectorized path needs raw state storage
  cfg.trainer.episodes = 6;
  cfg.env.maxSteps = 40;
  cfg.trainer.learningStart = 50;
  cfg.agent.hiddenSizes = {24, 24};
  cfg.agent.targetSyncInterval = 7;
  cfg.replayCapacity = 4000;
  return cfg;
}

void expectRecordsIdentical(const rl::MetricsLog& a, const rl::MetricsLog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const rl::EpisodeRecord& ra = a.records()[i];
    const rl::EpisodeRecord& rb = b.records()[i];
    EXPECT_EQ(ra.episode, rb.episode);
    EXPECT_EQ(ra.steps, rb.steps) << "episode " << i;
    EXPECT_EQ(ra.totalReward, rb.totalReward) << "episode " << i;
    EXPECT_EQ(ra.avgMaxQ, rb.avgMaxQ) << "episode " << i;
    EXPECT_EQ(ra.finalScore, rb.finalScore) << "episode " << i;
    EXPECT_EQ(ra.bestScore, rb.bestScore) << "episode " << i;
    EXPECT_EQ(ra.epsilon, rb.epsilon) << "episode " << i;
    EXPECT_EQ(ra.terminationCode, rb.terminationCode) << "episode " << i;
  }
}

void expectNetIdentical(const rl::QNetwork& a, const rl::QNetwork& b) {
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t t = 0; t < pa.size(); ++t) {
    const auto fa = pa[t]->flat();
    const auto fb = pb[t]->flat();
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t j = 0; j < fa.size(); ++j) {
      ASSERT_EQ(fa[j], fb[j]) << "tensor " << t << " element " << j;
    }
  }
}

/// Online and target weights.
void expectWeightsIdentical(const rl::DqnAgent& a, const rl::DqnAgent& b) {
  expectNetIdentical(a.online(), b.online());
  expectNetIdentical(a.target(), b.target());
}

void expectReplayIdentical(const rl::ExperienceSource& a, const rl::ExperienceSource& b,
                           std::uint64_t sampleSeed) {
  ASSERT_EQ(a.size(), b.size());
  // Same-seeded sampling reads the same slots; bitwise-equal contents
  // therefore produce bitwise-equal minibatches.
  Rng rngA(sampleSeed);
  Rng rngB(sampleSeed);
  const std::size_t batch = std::min<std::size_t>(64, a.size());
  const rl::Minibatch ma = a.sample(batch, rngA);
  const rl::Minibatch mb = b.sample(batch, rngB);
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i) {
    EXPECT_EQ(ma.actions[i], mb.actions[i]);
    EXPECT_EQ(ma.rewards[i], mb.rewards[i]);
    EXPECT_EQ(ma.terminals[i], mb.terminals[i]);
  }
  const auto sa = ma.states.flat();
  const auto sb = mb.states.flat();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) ASSERT_EQ(sa[i], sb[i]);
  const auto na = ma.nextStates.flat();
  const auto nb = mb.nextStates.flat();
  ASSERT_EQ(na.size(), nb.size());
  for (std::size_t i = 0; i < na.size(); ++i) ASSERT_EQ(na[i], nb[i]);
}

// --- Algorithm 2 oracle --------------------------------------------------

/// The paper's Algorithm 2 as a one-env loop: per step, record max_a Q
/// (Figure 4), act through selectAction on one Rng(seed), step the env,
/// push the transition and count the learn cadence in transitions. The
/// trainer's lockstep loop at V=1 must reproduce it bit for bit.
rl::MetricsLog runAlgorithm2(rl::Environment& env, rl::DqnAgent& agent, rl::ExperienceSink& sink,
                             rl::ExperienceSource& source, const rl::TrainerConfig& config) {
  Rng rng(config.seed);
  std::size_t globalStep = 0;
  rl::MetricsLog log;
  std::vector<double> state;
  std::vector<double> nextState;
  for (std::size_t e = 0; e < config.episodes; ++e) {
    env.reset(state);
    rl::EpisodeRecord record;
    record.episode = e;
    record.finalScore = env.score();
    record.bestScore = env.score();
    RunningStats maxQ;
    bool terminal = false;
    while (!terminal) {
      const double epsilon = config.epsilon.value(globalStep);
      record.epsilon = epsilon;
      maxQ.add(agent.maxQ(state));
      const int action = agent.selectAction(state, epsilon, rng);
      const rl::EnvStep result = env.step(action, nextState);
      record.totalReward += result.reward;
      record.terminationCode = result.terminationCode;
      terminal = result.terminal;
      sink.push(state, action, result.reward, nextState, terminal);
      state = nextState;
      ++record.steps;
      ++globalStep;
      if (globalStep >= config.learningStart && config.learnEvery > 0 &&
          globalStep % config.learnEvery == 0) {
        agent.learn(source, rng);
      }
      const double score = env.score();
      record.finalScore = score;
      record.bestScore = std::max(record.bestScore, score);
    }
    record.avgMaxQ = maxQ.count() ? maxQ.mean() : 0.0;
    log.add(record);
  }
  return log;
}

/// DqnDocking::train() at vectorEnvs 0 against Algorithm 2 driving a
/// second system's task and agent through its own raw replay.
void expectTrainMatchesAlgorithm2(const core::DqnDockingConfig& cfg, bool foldExpected) {
  ASSERT_EQ(cfg.vectorEnvs, 0u);
  ASSERT_FALSE(cfg.compactReplay);
  core::DqnDocking subject(cfg);
  core::DqnDocking oracle(cfg);
  EXPECT_EQ(subject.foldActive(), foldExpected);
  subject.train();
  rl::ReplayBuffer replay(cfg.replayCapacity, oracle.task().stateDim());
  const rl::MetricsLog log =
      runAlgorithm2(oracle.task(), oracle.agent(), replay, replay, cfg.trainer);

  ASSERT_GT(oracle.agent().learnSteps(), 0u);
  expectRecordsIdentical(subject.metrics(), log);
  expectWeightsIdentical(subject.agent(), oracle.agent());
  expectReplayIdentical(subject.rawReplay(), replay, /*sampleSeed=*/2468);
  EXPECT_EQ(subject.trainer().globalStep(), replay.size());
}

TEST(VectorEnvEquivalence, TrainMatchesAlgorithm2OnLigandStates) {
  // Ligand-only states have no constant prefix to fold.
  expectTrainMatchesAlgorithm2(fastRawConfig(), /*foldExpected=*/false);
}

TEST(VectorEnvEquivalence, TrainMatchesAlgorithm2OnFullStates) {
  // The static-prefix fold follows the DQNDOCK_FOLD_STATIC gate: on by
  // default, off in the CI job that re-runs these suites with it off.
  core::DqnDockingConfig cfg = fastRawConfig();
  cfg.stateMode = core::StateMode::kFullWithBonds;
  cfg.replayCapacity = 512;  // full-width states when the fold is off
  expectTrainMatchesAlgorithm2(cfg, nn::foldStaticEnabled());
}

TEST(VectorEnvEquivalence, TrainEpisodeMatchesAlgorithm2OnPoseReplay) {
  core::DqnDockingConfig cfg = fastRawConfig();
  cfg.compactReplay = true;
  core::DqnDocking subject(cfg);
  core::DqnDocking oracle(cfg);
  for (std::size_t e = 0; e < cfg.trainer.episodes; ++e) subject.trainEpisode();
  core::PoseReplayBuffer replay(cfg.replayCapacity, oracle.task());
  const rl::MetricsLog log =
      runAlgorithm2(oracle.task(), oracle.agent(), replay, replay, cfg.trainer);

  ASSERT_GT(oracle.agent().learnSteps(), 0u);
  expectRecordsIdentical(subject.metrics(), log);
  expectWeightsIdentical(subject.agent(), oracle.agent());
}

TEST(VectorEnvEquivalence, V1TrainEpisodeMatchesTrain) {
  core::DqnDockingConfig cfg = fastRawConfig();
  cfg.vectorEnvs = 1;
  core::DqnDocking whole(cfg);
  core::DqnDocking stepwise(cfg);
  whole.train();
  for (std::size_t e = 0; e < cfg.trainer.episodes; ++e) {
    const rl::EpisodeRecord r = stepwise.trainEpisode();
    EXPECT_EQ(r.episode, e);
  }
  expectRecordsIdentical(whole.metrics(), stepwise.metrics());
  expectWeightsIdentical(whole.agent(), stepwise.agent());
  expectReplayIdentical(whole.rawReplay(), stepwise.rawReplay(), /*sampleSeed=*/1357);
}

TEST(VectorEnvEquivalence, RecordsCarryTheEnvsTerminationReason) {
  for (const std::size_t v : {0u, 1u}) {
    core::DqnDockingConfig cfg = fastRawConfig();
    cfg.vectorEnvs = v;
    core::DqnDocking system(cfg);
    // The callback runs after the episode's last step, before its env
    // is reset.
    system.trainer().setEpisodeCallback([&](const rl::EpisodeRecord& r) {
      EXPECT_NE(r.terminationCode, 0) << "V=" << v << " episode " << r.episode;
      EXPECT_EQ(r.terminationCode, static_cast<int>(system.trainingEnv().terminationReason()))
          << "V=" << v << " episode " << r.episode;
    });
    EXPECT_EQ(system.train().size(), cfg.trainer.episodes);
    const rl::EpisodeRecord greedy = system.evaluateGreedy();
    EXPECT_NE(greedy.terminationCode, 0);
    EXPECT_EQ(greedy.terminationCode,
              static_cast<int>(system.trainingEnv().terminationReason()));
  }

  // Capped at maxSteps, on the task, the V=1 scalar branch and the
  // batched V>1 step alike.
  for (const std::size_t v : {0u, 1u, 4u}) {
    core::DqnDockingConfig cfg = fastRawConfig();
    cfg.vectorEnvs = v;
    cfg.env.maxSteps = 2;
    core::DqnDocking system(cfg);
    for (const rl::EpisodeRecord& r : system.train().records()) {
      EXPECT_EQ(r.steps, 2u);
      EXPECT_EQ(r.terminationCode, static_cast<int>(metadock::Termination::kTimeLimit))
          << "V=" << v << " episode " << r.episode;
    }
  }
}

// --- DockingVectorEnv at V=1 reproduces a run on the task ---------------

TEST(VectorEnvEquivalence, V1BitIdenticalToSequentialTrainer) {
  // vectorEnvs 0 trains on the system's task, 1 on a one-env
  // DockingVectorEnv: the same loop over the two env adapters.
  core::DqnDockingConfig seqCfg = fastRawConfig();
  core::DqnDockingConfig vecCfg = seqCfg;
  vecCfg.vectorEnvs = 1;

  core::DqnDocking seq(seqCfg);
  core::DqnDocking vec(vecCfg);
  ASSERT_EQ(seq.vectorEnv(), nullptr);
  ASSERT_NE(vec.vectorEnv(), nullptr);

  const rl::MetricsLog& seqLog = seq.train();
  const rl::MetricsLog& vecLog = vec.train();

  expectRecordsIdentical(seqLog, vecLog);
  expectWeightsIdentical(seq.agent(), vec.agent());
  expectReplayIdentical(seq.rawReplay(), vec.rawReplay(), /*sampleSeed=*/12345);

  // V=1 batches nothing: it must take the scalar scoring path.
  EXPECT_EQ(vec.vectorEnv()->batchedSteps(), 0u);
}

TEST(VectorEnvEquivalence, V1GreedyEvaluationMatchesSequential) {
  core::DqnDockingConfig seqCfg = fastRawConfig();
  seqCfg.trainer.episodes = 3;
  core::DqnDockingConfig vecCfg = seqCfg;
  vecCfg.vectorEnvs = 1;
  core::DqnDocking seq(seqCfg);
  core::DqnDocking vec(vecCfg);
  seq.train();
  vec.train();
  const rl::EpisodeRecord a = seq.evaluateGreedy();
  const rl::EpisodeRecord b = vec.evaluateGreedy();
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.totalReward, b.totalReward);
  EXPECT_EQ(a.finalScore, b.finalScore);
  EXPECT_EQ(a.bestScore, b.bestScore);
}

// --- V=8 determinism: same seed => identical runs, any thread count ----

TEST(VectorEnvDeterminism, V8IdenticalAcrossRunsAndThreadCounts) {
  core::DqnDockingConfig cfg = fastRawConfig();
  cfg.vectorEnvs = 8;
  cfg.trainer.episodes = 10;

  core::DqnDocking serial(cfg);            // no pool: serial batched scoring
  const rl::MetricsLog& logSerial = serial.train();

  ThreadPool pool(4);
  core::DqnDocking pooled(cfg, &pool);     // 4 workers sweep the pose batch
  const rl::MetricsLog& logPooled = pooled.train();

  core::DqnDocking repeat(cfg, &pool);     // same seed, second run
  const rl::MetricsLog& logRepeat = repeat.train();

  expectRecordsIdentical(logSerial, logPooled);
  expectRecordsIdentical(logSerial, logRepeat);
  expectWeightsIdentical(serial.agent(), pooled.agent());
  expectWeightsIdentical(serial.agent(), repeat.agent());
  expectReplayIdentical(serial.rawReplay(), pooled.rawReplay(), /*sampleSeed=*/99);

  EXPECT_GT(serial.vectorEnv()->batchedSteps(), 0u);
  EXPECT_EQ(serial.vectorEnv()->batchedSteps(), pooled.vectorEnv()->batchedSteps());
}

TEST(VectorEnvDeterminism, PerEnvStreamsAreSeedIndexKeyed) {
  // The stream is a pure function of (seed, index), like
  // ligandScreenStream: independent draws per env, reproducible.
  Rng a0 = rl::trainerEnvStream(7, 0);
  Rng a0again = rl::trainerEnvStream(7, 0);
  Rng a1 = rl::trainerEnvStream(7, 1);
  const double d0 = a0.uniform();
  EXPECT_EQ(d0, a0again.uniform());
  EXPECT_NE(d0, a1.uniform());
}

// --- Vectorized schedule semantics -------------------------------------

TEST(VectorEnvSchedule, EpisodeQuotaAndTransitionCounting) {
  core::DqnDockingConfig cfg = fastRawConfig();
  cfg.vectorEnvs = 4;
  cfg.trainer.episodes = 5;
  core::DqnDocking system(cfg);
  const rl::MetricsLog& log = system.train();
  EXPECT_EQ(log.size(), 5u);  // completion-order records, quota respected
  // Every lockstep pass commits V transitions.
  EXPECT_EQ(system.trainer().globalStep() % cfg.vectorEnvs, 0u);
  EXPECT_EQ(system.trainer().globalStep(),
            system.vectorEnv()->batchedSteps() * cfg.vectorEnvs);
}

TEST(VectorEnvSchedule, RunEpisodeThrowsInVectorizedMode) {
  core::DqnDockingConfig cfg = fastRawConfig();
  cfg.vectorEnvs = 2;
  core::DqnDocking system(cfg);
  EXPECT_THROW(system.trainEpisode(), std::logic_error);
}

TEST(VectorEnvSchedule, GreedyEvaluationDoesNotTrain) {
  core::DqnDockingConfig cfg = fastRawConfig();
  cfg.vectorEnvs = 3;
  cfg.trainer.episodes = 3;
  core::DqnDocking system(cfg);
  system.train();
  const std::size_t stepsBefore = system.trainer().globalStep();
  const rl::EpisodeRecord eval = system.evaluateGreedy();
  EXPECT_GT(eval.steps, 0u);
  EXPECT_DOUBLE_EQ(eval.epsilon, 0.0);
  EXPECT_EQ(system.trainer().globalStep(), stepsBefore);
  EXPECT_EQ(system.metrics().size(), 3u);
}

TEST(VectorEnvSchedule, InvalidCombinationsRejected) {
  core::DqnDockingConfig compact = fastRawConfig();
  compact.vectorEnvs = 2;
  compact.compactReplay = true;
  EXPECT_THROW(core::DqnDocking{compact}, std::invalid_argument);

  core::DqnDockingConfig nstep = fastRawConfig();
  nstep.vectorEnvs = 2;
  nstep.nStep = 3;
  EXPECT_THROW(core::DqnDocking{nstep}, std::invalid_argument);

  // V=1 with n-step is a single stream and stays legal.
  core::DqnDockingConfig ok = fastRawConfig();
  ok.vectorEnvs = 1;
  ok.nStep = 2;
  ok.trainer.episodes = 2;
  EXPECT_NO_THROW(core::DqnDocking{ok});
}

// --- DockingVectorEnv unit behaviour -----------------------------------

TEST(DockingVectorEnvTest, BatchedStepMatchesScalarScoresClosely) {
  const chem::Scenario scenario = chem::buildScenario(chem::ScenarioSpec::tiny());
  metadock::EnvConfig envCfg;
  envCfg.maxSteps = 50;
  const core::StateEncoder encoder(scenario, core::StateMode::kLigandPositions);

  const std::size_t v = 5;
  core::DockingVectorEnv venv(scenario, envCfg, encoder, v);
  metadock::DockingEnv scalar(scenario, envCfg);

  nn::Tensor states(v, encoder.dim());
  nn::Tensor nextStates(v, encoder.dim());
  for (std::size_t i = 0; i < v; ++i) venv.reset(i, states.row(i));

  std::vector<int> actions(v);
  std::vector<rl::EnvStep> results(v);
  for (std::size_t i = 0; i < v; ++i) actions[i] = static_cast<int>(i % 12);
  venv.step(actions, nextStates, results);
  EXPECT_EQ(venv.batchedSteps(), 1u);

  // Each env's committed score agrees with an independent scalar env
  // taking the same action (batched kernel tolerance).
  for (std::size_t i = 0; i < v; ++i) {
    scalar.reset();
    const metadock::StepResult r = scalar.step(actions[i]);
    EXPECT_NEAR(venv.env(i).score(), r.score, 1e-9 * std::max(1.0, std::abs(r.score)));
    EXPECT_EQ(results[i].terminal, r.terminal);
  }
}

TEST(DockingVectorEnvTest, ShapeValidation) {
  const chem::Scenario scenario = chem::buildScenario(chem::ScenarioSpec::tiny());
  const core::StateEncoder encoder(scenario, core::StateMode::kLigandPositions);
  core::DockingVectorEnv venv(scenario, {}, encoder, 2);
  nn::Tensor states(2, encoder.dim());
  venv.reset(0, states.row(0));
  venv.reset(1, states.row(1));

  std::vector<int> wrongActions(3, 0);
  std::vector<rl::EnvStep> results(2);
  nn::Tensor next(2, encoder.dim());
  EXPECT_THROW(venv.step(wrongActions, next, results), std::invalid_argument);
  nn::Tensor badShape(3, encoder.dim());
  std::vector<int> actions(2, 0);
  EXPECT_THROW(venv.step(actions, badShape, results), std::invalid_argument);
  EXPECT_THROW(core::DockingVectorEnv(scenario, {}, encoder, 0), std::invalid_argument);
}

// --- LockstepVectorEnv over scalar Environments ------------------------

TEST(LockstepVectorEnvTest, SequentialSemanticsAndNoBatching) {
  rl::CorridorEnv a(6, 32), b(6, 32), c(6, 32);
  rl::LockstepVectorEnv venv({&a, &b, &c});
  EXPECT_EQ(venv.size(), 3u);
  EXPECT_EQ(venv.stateDim(), 6u);
  EXPECT_EQ(venv.actionCount(), 2);

  nn::Tensor states(3, 6);
  nn::Tensor next(3, 6);
  for (std::size_t i = 0; i < 3; ++i) venv.reset(i, states.row(i));
  std::vector<int> actions = {1, 1, 0};
  std::vector<rl::EnvStep> results(3);
  venv.step(actions, next, results);
  EXPECT_EQ(venv.batchedSteps(), 0u);  // per-env stepping, nothing batched
  EXPECT_EQ(venv.score(0), 1.0);           // walked right
  EXPECT_EQ(results[2].reward, -1.0);      // stepped off the left edge
  EXPECT_TRUE(results[2].terminal);
}

TEST(LockstepVectorEnvTest, VectorizedTrainerLearnsCorridor) {
  // The full vectorized schedule over a generic (non-docking) VectorEnv.
  std::vector<rl::CorridorEnv> corridors(4, rl::CorridorEnv(5, 40));
  std::vector<rl::Environment*> envs;
  for (rl::CorridorEnv& corridor : corridors) envs.push_back(&corridor);
  rl::LockstepVectorEnv venv(envs);

  rl::DqnConfig agentCfg;
  agentCfg.hiddenSizes = {16};
  agentCfg.targetSyncInterval = 50;
  Rng initRng(3);
  rl::DqnAgent agent(venv.stateDim(), venv.actionCount(), agentCfg, initRng);
  rl::ReplayBuffer replay(2000, venv.stateDim());
  rl::TrainerConfig trainCfg;
  trainCfg.episodes = 120;
  trainCfg.learningStart = 100;
  trainCfg.epsilon = rl::EpsilonSchedule(1.0, 0.05, 1e-3, 100);
  trainCfg.seed = 3;
  rl::Trainer trainer(venv, agent, replay, replay, trainCfg);
  trainer.run();
  ASSERT_EQ(trainer.metrics().size(), 120u);

  // Greedy policy should have learned to walk right to the goal.
  const rl::EpisodeRecord greedy = trainer.evaluateGreedy();
  EXPECT_GT(greedy.totalReward, 0.0);
}

}  // namespace
}  // namespace dqndock
