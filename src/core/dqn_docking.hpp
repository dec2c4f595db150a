#pragma once

/// \file dqn_docking.hpp
/// The DQN-Docking system facade: wires the synthetic (or user-supplied)
/// scenario, the METADOCK environment, the state encoder, the replay
/// buffer and the DQN agent into one trainable object. This is the
/// public entry point most examples use:
///
///   auto cfg = core::DqnDockingConfig::scaled();
///   core::DqnDocking system(cfg, &ThreadPool::global());
///   const rl::MetricsLog& log = system.train();   // Figure 4 series
///   auto greedy = system.evaluateGreedy();        // trained policy

#include <memory>
#include <optional>

#include "src/core/config.hpp"
#include "src/core/docking_task.hpp"
#include "src/core/docking_vector_env.hpp"
#include "src/core/pose_replay.hpp"
#include "src/rl/nstep.hpp"
#include "src/rl/prioritized_replay.hpp"

namespace dqndock::core {

class DqnDocking {
 public:
  /// Builds everything from the config. `pool` parallelises scoring and
  /// the NN GEMMs; nullptr runs single-threaded.
  explicit DqnDocking(DqnDockingConfig config, ThreadPool* pool = nullptr);

  /// Builds on a caller-provided scenario (e.g. loaded from real PDB
  /// files) instead of the synthetic one in config.scenario.
  DqnDocking(DqnDockingConfig config, chem::Scenario scenario, ThreadPool* pool = nullptr);

  std::size_t stateDim() const { return encoder_->dim(); }
  int actionCount() const { return env_->actionCount(); }
  /// True when the static-prefix input-layer fold is live for this run:
  /// the env adapters emit dynamic-suffix states, replay stores them at
  /// that width, and the agent's nets run the folded input-layer path.
  bool foldActive() const { return agent_->foldActive(); }

  /// Train for config.trainer.episodes episodes; returns the metrics the
  /// paper's Figure 4 is drawn from.
  const rl::MetricsLog& train();

  /// Run one more training episode (incremental use). Needs a single
  /// env (vectorEnvs 0 or 1); throws for vectorEnvs > 1.
  rl::EpisodeRecord trainEpisode();

  /// One greedy (epsilon = 0) evaluation episode with learning disabled.
  rl::EpisodeRecord evaluateGreedy();

  const rl::MetricsLog& metrics() const { return trainer_->metrics(); }

  // Component access for tests, benches and custom loops.
  metadock::DockingEnv& env() { return *env_; }
  DockingTask& task() { return *task_; }
  /// Non-null when config.vectorEnvs >= 1 (the trainer then steps these
  /// envs instead of task()).
  DockingVectorEnv* vectorEnv() { return vectorEnv_.get(); }
  /// The env the trainer (and evaluateGreedy) actually steps: env 0 of
  /// vectorEnv() when vectorEnvs >= 1, task().env() otherwise.
  metadock::DockingEnv& trainingEnv() { return vectorEnv_ ? vectorEnv_->env(0) : *env_; }
  rl::DqnAgent& agent() { return *agent_; }
  rl::Trainer& trainer() { return *trainer_; }
  const StateEncoder& encoder() const { return *encoder_; }
  const chem::Scenario& scenario() const { return scenario_; }
  const DqnDockingConfig& config() const { return config_; }

  /// Bytes held by the replay buffer (raw vs compact comparison).
  std::size_t replayMemoryBytes() const;

  /// The raw-state replay buffer. Only valid when the default raw
  /// storage is active (no compact/prioritized replay) — equivalence
  /// tests compare stored transitions across trainer schedules.
  const rl::ReplayBuffer& rawReplay() const { return *rawReplay_; }

 private:
  void build(ThreadPool* pool);

  DqnDockingConfig config_;
  chem::Scenario scenario_;
  std::unique_ptr<metadock::DockingEnv> env_;
  std::unique_ptr<StateEncoder> encoder_;
  std::unique_ptr<DockingTask> task_;
  std::unique_ptr<DockingVectorEnv> vectorEnv_;
  std::unique_ptr<rl::ReplayBuffer> rawReplay_;
  std::unique_ptr<PoseReplayBuffer> poseReplay_;
  std::unique_ptr<rl::PrioritizedReplayBuffer> prioritizedReplay_;
  std::unique_ptr<rl::NStepSink> nstepSink_;
  std::unique_ptr<rl::DqnAgent> agent_;
  std::unique_ptr<rl::Trainer> trainer_;
};

}  // namespace dqndock::core
