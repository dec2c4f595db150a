#include "src/core/dqn_docking.hpp"

namespace dqndock::core {

DqnDocking::DqnDocking(DqnDockingConfig config, ThreadPool* pool)
    : config_(std::move(config)), scenario_(chem::buildScenario(config_.scenario)) {
  build(pool);
}

DqnDocking::DqnDocking(DqnDockingConfig config, chem::Scenario scenario, ThreadPool* pool)
    : config_(std::move(config)), scenario_(std::move(scenario)) {
  build(pool);
}

void DqnDocking::build(ThreadPool* pool) {
  if (config_.compactReplay && config_.prioritizedReplay) {
    throw std::invalid_argument(
        "DqnDocking: compactReplay and prioritizedReplay are mutually exclusive");
  }
  if (config_.nStep < 1) throw std::invalid_argument("DqnDocking: nStep must be >= 1");
  if (config_.nStep > 1 && config_.compactReplay) {
    throw std::invalid_argument(
        "DqnDocking: n-step returns require raw state storage (compactReplay records the "
        "trailing pose pair only)");
  }
  if (config_.vectorEnvs >= 1 && config_.compactReplay) {
    throw std::invalid_argument(
        "DqnDocking: vectorEnvs requires raw state storage (compactReplay re-derives poses "
        "from the system's own task at push time)");
  }
  if (config_.vectorEnvs > 1 && config_.nStep > 1) {
    throw std::invalid_argument(
        "DqnDocking: n-step returns chain consecutive transitions of one episode stream; "
        "lockstep vectorEnvs > 1 interleave V streams into the sink");
  }
  config_.agent.nStep = config_.nStep;

  config_.env.scoring.pool = nullptr;  // parallelism lives in the NN + batch layers
  env_ = std::make_unique<metadock::DockingEnv>(scenario_, config_.env);
  encoder_ = std::make_unique<StateEncoder>(scenario_, config_.stateMode,
                                            config_.normalizeStates);
  task_ = std::make_unique<DockingTask>(*env_, *encoder_);

  Rng rng(config_.trainer.seed);
  agent_ = std::make_unique<rl::DqnAgent>(encoder_->dim(), env_->actionCount(), config_.agent,
                                          rng, pool);

  // Static-prefix fold: the config override wins over the
  // DQNDOCK_FOLD_STATIC environment gate. Inert when the state has no
  // constant prefix (ligand-only mode): the whole pipeline then keeps
  // full-width states, byte-identical to the pre-fold code path. The
  // plain and the dueling Q-network both fold.
  const bool wantFold = config_.foldStatic.value_or(nn::foldStaticEnabled());
  const bool foldActive =
      wantFold && encoder_->staticPrefixLen() > 0 &&
      agent_->enableStaticPrefixFold(encoder_->staticPrefix());
  if (foldActive) task_->setDynamicStates(true);
  // Replay stores states at the width the env adapters emit them.
  const std::size_t replayDim = task_->stateDim();

  rl::ExperienceSink* sink = nullptr;
  rl::ExperienceSource* source = nullptr;
  if (config_.compactReplay) {
    poseReplay_ = std::make_unique<PoseReplayBuffer>(config_.replayCapacity, *task_);
    sink = poseReplay_.get();
    source = poseReplay_.get();
  } else if (config_.prioritizedReplay) {
    prioritizedReplay_ =
        std::make_unique<rl::PrioritizedReplayBuffer>(config_.replayCapacity, replayDim);
    sink = prioritizedReplay_.get();
    source = prioritizedReplay_.get();
  } else {
    rawReplay_ = std::make_unique<rl::ReplayBuffer>(config_.replayCapacity, replayDim);
    sink = rawReplay_.get();
    source = rawReplay_.get();
  }
  if (config_.nStep > 1) {
    nstepSink_ = std::make_unique<rl::NStepSink>(*sink, config_.nStep, config_.agent.gamma);
    sink = nstepSink_.get();
  }
  if (config_.vectorEnvs >= 1) {
    // The batched pose evaluator takes the pool; per-env scalar scoring
    // stays serial like the task's env above.
    vectorEnv_ = std::make_unique<DockingVectorEnv>(scenario_, config_.env, *encoder_,
                                                    config_.vectorEnvs, pool);
    vectorEnv_->setDynamicStates(foldActive);
    trainer_ = std::make_unique<rl::Trainer>(*vectorEnv_, *agent_, *sink, *source,
                                             config_.trainer);
  } else {
    trainer_ = std::make_unique<rl::Trainer>(*task_, *agent_, *sink, *source, config_.trainer);
  }
}

const rl::MetricsLog& DqnDocking::train() { return trainer_->run(); }

rl::EpisodeRecord DqnDocking::trainEpisode() { return trainer_->runEpisode(); }

rl::EpisodeRecord DqnDocking::evaluateGreedy() { return trainer_->evaluateGreedy(); }

std::size_t DqnDocking::replayMemoryBytes() const {
  if (rawReplay_) return rawReplay_->memoryBytes();
  if (poseReplay_) return poseReplay_->memoryBytes();
  return 0;
}

}  // namespace dqndock::core
