// Training-loop guards: the trainer's one lockstep loop must reproduce
// the paper's Algorithm 2 (a test-local copy of its one-env loop) bit for
// bit at V=1 (episode records, replay contents, online and target
// weights), for DqnAgent and C51Agent alike and across a greedy
// evaluation; DockingVectorEnv at V=1 must reproduce a run on the task;
// and V>1 runs must be deterministic across repeat runs and across thread
// counts. Also pins down which VectorEnv implementation batches its
// scoring (`batchedSteps`), that each episode record carries the env's
// termination reason, and that tied Q-values pick the first action.

#include <gtest/gtest.h>

#include "src/common/running_stats.hpp"
#include "src/core/dqn_docking.hpp"
#include "src/core/docking_vector_env.hpp"
#include "src/core/pose_replay.hpp"
#include "src/rl/c51_agent.hpp"
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

void expectRecordIdentical(const rl::EpisodeRecord& ra, const rl::EpisodeRecord& rb) {
  EXPECT_EQ(ra.episode, rb.episode);
  EXPECT_EQ(ra.steps, rb.steps) << "episode " << ra.episode;
  EXPECT_EQ(ra.totalReward, rb.totalReward) << "episode " << ra.episode;
  EXPECT_EQ(ra.avgMaxQ, rb.avgMaxQ) << "episode " << ra.episode;
  EXPECT_EQ(ra.finalScore, rb.finalScore) << "episode " << ra.episode;
  EXPECT_EQ(ra.bestScore, rb.bestScore) << "episode " << ra.episode;
  EXPECT_EQ(ra.epsilon, rb.epsilon) << "episode " << ra.episode;
  EXPECT_EQ(ra.terminationCode, rb.terminationCode) << "episode " << ra.episode;
}

void expectRecordsIdentical(const rl::MetricsLog& a, const rl::MetricsLog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expectRecordIdentical(a.records()[i], b.records()[i]);
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
/// trainer's lockstep loop at V=1 must reproduce it bit for bit. Every
/// call continues the same stream and step count, so a run can be split
/// around a greedy episode.
template <typename AgentT>
class Algorithm2 {
 public:
  Algorithm2(rl::Environment& env, AgentT& agent, rl::ExperienceSink& sink,
             rl::ExperienceSource& source, const rl::TrainerConfig& config)
      : env_(env), agent_(agent), sink_(sink), source_(source), config_(config),
        rng_(config.seed) {}

  /// `episodes` more training episodes, appended to the log.
  const rl::MetricsLog& train(std::size_t episodes) {
    for (std::size_t e = 0; e < episodes; ++e) {
      env_.reset(state_);
      rl::EpisodeRecord record;
      record.episode = log_.size();
      record.finalScore = env_.score();
      record.bestScore = env_.score();
      RunningStats maxQ;
      bool terminal = false;
      while (!terminal) {
        const double epsilon = config_.epsilon.value(globalStep_);
        record.epsilon = epsilon;
        maxQ.add(agent_.maxQ(state_));
        const int action = agent_.selectAction(state_, epsilon, rng_);
        const rl::EnvStep result = env_.step(action, nextState_);
        record.totalReward += result.reward;
        record.terminationCode = result.terminationCode;
        terminal = result.terminal;
        sink_.push(state_, action, result.reward, nextState_, terminal);
        state_ = nextState_;
        ++record.steps;
        ++globalStep_;
        if (globalStep_ >= config_.learningStart && config_.learnEvery > 0 &&
            globalStep_ % config_.learnEvery == 0) {
          agent_.learn(source_, rng_);
        }
        const double score = env_.score();
        record.finalScore = score;
        record.bestScore = std::max(record.bestScore, score);
      }
      record.avgMaxQ = maxQ.count() ? maxQ.mean() : 0.0;
      log_.add(record);
    }
    return log_;
  }

  /// One greedy episode on the same stream: max_a Q and selectAction at
  /// epsilon 0 (which still draws its uniform()) per step; no push, no
  /// learn, no step counted.
  rl::EpisodeRecord greedyEpisode() {
    env_.reset(state_);
    rl::EpisodeRecord record;
    record.episode = log_.size();
    record.finalScore = env_.score();
    record.bestScore = env_.score();
    RunningStats maxQ;
    bool terminal = false;
    while (!terminal) {
      maxQ.add(agent_.maxQ(state_));
      const int action = agent_.selectAction(state_, /*epsilon=*/0.0, rng_);
      const rl::EnvStep result = env_.step(action, nextState_);
      record.totalReward += result.reward;
      record.terminationCode = result.terminationCode;
      terminal = result.terminal;
      state_ = nextState_;
      ++record.steps;
      record.finalScore = env_.score();
      record.bestScore = std::max(record.bestScore, record.finalScore);
    }
    record.avgMaxQ = maxQ.count() ? maxQ.mean() : 0.0;
    return record;
  }

 private:
  rl::Environment& env_;
  AgentT& agent_;
  rl::ExperienceSink& sink_;
  rl::ExperienceSource& source_;
  const rl::TrainerConfig& config_;
  Rng rng_;
  std::size_t globalStep_ = 0;
  rl::MetricsLog log_;
  std::vector<double> state_;
  std::vector<double> nextState_;
};

template <typename AgentT>
rl::MetricsLog runAlgorithm2(rl::Environment& env, AgentT& agent, rl::ExperienceSink& sink,
                             rl::ExperienceSource& source, const rl::TrainerConfig& config) {
  return Algorithm2<AgentT>(env, agent, sink, source, config).train(config.episodes);
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

TEST(VectorEnvEquivalence, GreedyEvaluationDrawsFromTheTrainingStream) {
  // evaluateGreedy draws one uniform() per step from the stream training
  // uses, as Algorithm 2's selectAction does at epsilon 0, so the
  // episodes trained after it see those draws.
  core::DqnDockingConfig cfg = fastRawConfig();
  cfg.trainer.episodes = 3;
  core::DqnDocking subject(cfg);
  core::DqnDocking oracle(cfg);
  subject.train();
  const rl::EpisodeRecord greedy = subject.evaluateGreedy();
  for (int e = 0; e < 3; ++e) subject.trainEpisode();

  rl::ReplayBuffer replay(cfg.replayCapacity, oracle.task().stateDim());
  Algorithm2<rl::DqnAgent> algorithm2(oracle.task(), oracle.agent(), replay, replay,
                                      cfg.trainer);
  algorithm2.train(3);
  const rl::EpisodeRecord oracleGreedy = algorithm2.greedyEpisode();
  const rl::MetricsLog& log = algorithm2.train(3);

  ASSERT_GT(oracle.agent().learnSteps(), 0u);
  expectRecordIdentical(greedy, oracleGreedy);
  expectRecordsIdentical(subject.metrics(), log);
  expectWeightsIdentical(subject.agent(), oracle.agent());
  expectReplayIdentical(subject.rawReplay(), replay, /*sampleSeed=*/8642);
}

/// A C51Agent on its own DockingTask with raw replay, built from the
/// system config the way bench_dqn_variants builds its C51 row: one side
/// of a C51 equivalence run. With `fold`, the agent folds the encoder's
/// static prefix and the task emits dynamic-suffix states.
struct C51Task {
  C51Task(const core::DqnDockingConfig& cfg, bool fold)
      : scenario(chem::buildScenario(cfg.scenario)),
        env(scenario, cfg.env),
        encoder(scenario, cfg.stateMode, cfg.normalizeStates),
        task(env, encoder),
        initRng(cfg.trainer.seed),
        agent(encoder.dim(), env.actionCount(), c51Config(cfg), initRng),
        replay(cfg.replayCapacity, fold ? encoder.dynamicDim() : encoder.dim()) {
    if (fold) {
      EXPECT_TRUE(agent.enableStaticPrefixFold(encoder.staticPrefix()));
      task.setDynamicStates(true);
    }
  }

  static rl::C51Config c51Config(const core::DqnDockingConfig& cfg) {
    rl::C51Config c51;
    c51.hiddenSizes = cfg.agent.hiddenSizes;
    c51.batchSize = cfg.agent.batchSize;
    c51.gamma = cfg.agent.gamma;
    c51.targetSyncInterval = cfg.agent.targetSyncInterval;
    c51.learningRate = 0.001;
    return c51;
  }

  chem::Scenario scenario;
  metadock::DockingEnv env;
  core::StateEncoder encoder;
  core::DockingTask task;
  Rng initRng;
  rl::C51Agent agent;
  rl::ReplayBuffer replay;
};

/// rl::Trainer over a C51 task against Algorithm 2 driving a second,
/// identically seeded one: records, replay and every action's learned
/// distribution on probe states match bit for bit.
void expectC51TrainMatchesAlgorithm2(const core::DqnDockingConfig& cfg, bool fold) {
  C51Task subject(cfg, fold);
  C51Task oracle(cfg, fold);
  rl::Trainer trainer(subject.task, subject.agent, subject.replay, subject.replay, cfg.trainer);
  trainer.run();
  const rl::MetricsLog log =
      runAlgorithm2(oracle.task, oracle.agent, oracle.replay, oracle.replay, cfg.trainer);

  ASSERT_GT(oracle.agent.learnSteps(), 0u);
  EXPECT_EQ(subject.agent.learnSteps(), oracle.agent.learnSteps());
  expectRecordsIdentical(trainer.metrics(), log);
  expectReplayIdentical(subject.replay, oracle.replay, /*sampleSeed=*/4321);
  Rng probeRng(77);
  std::vector<double> probe(subject.task.stateDim());
  for (int p = 0; p < 4; ++p) {
    for (double& v : probe) v = probeRng.uniform(-1.0, 1.0);
    for (int a = 0; a < subject.agent.actionCount(); ++a) {
      const std::vector<double> da = subject.agent.distribution(probe, a);
      const std::vector<double> db = oracle.agent.distribution(probe, a);
      ASSERT_EQ(da.size(), db.size());
      for (std::size_t i = 0; i < da.size(); ++i) {
        ASSERT_EQ(da[i], db[i]) << "probe " << p << " action " << a << " atom " << i;
      }
    }
  }
}

TEST(VectorEnvEquivalence, C51TrainMatchesAlgorithm2OnLigandStates) {
  expectC51TrainMatchesAlgorithm2(fastRawConfig(), /*fold=*/false);
}

TEST(VectorEnvEquivalence, C51TrainMatchesAlgorithm2OnFoldedFullStates) {
  core::DqnDockingConfig cfg = fastRawConfig();
  cfg.stateMode = core::StateMode::kFullWithBonds;
  expectC51TrainMatchesAlgorithm2(cfg, /*fold=*/true);
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

/// Every action ties at Q = 0.
class TiedAgent final : public rl::Agent {
 public:
  explicit TiedAgent(int actions) : actions_(actions) {}
  void qValuesBatch(const nn::Tensor& states, nn::Tensor& q) const override {
    q.resize(states.rows(), static_cast<std::size_t>(actions_));
  }
  double learn(rl::ExperienceSource&, Rng&) override { return 0.0; }

 private:
  int actions_;
};

TEST(VectorEnvSchedule, TiedQValuesPickTheFirstAction) {
  // Greedy on tied Q-values takes the first action, as selectAction's
  // std::max_element does. Here that is "left", off the corridor's edge
  // in one step, in training and in the greedy evaluation alike.
  rl::CorridorEnv corridor(5, 40);
  TiedAgent agent(corridor.actionCount());
  rl::ReplayBuffer replay(64, corridor.stateDim());
  rl::TrainerConfig cfg;
  cfg.episodes = 3;
  cfg.epsilon = rl::EpsilonSchedule(0.0, 0.0, 0.0, 0);
  rl::Trainer trainer(corridor, agent, replay, replay, cfg);
  for (const rl::EpisodeRecord& r : trainer.run().records()) {
    EXPECT_EQ(r.steps, 1u) << "episode " << r.episode;
    EXPECT_EQ(r.totalReward, -1.0) << "episode " << r.episode;
  }
  const rl::EpisodeRecord greedy = trainer.evaluateGreedy();
  EXPECT_EQ(greedy.steps, 1u);
  EXPECT_EQ(greedy.totalReward, -1.0);
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
