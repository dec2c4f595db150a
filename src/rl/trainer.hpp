#pragma once

/// \file trainer.hpp
/// Episode loop of Algorithm 2 (DQN-Docking): for each episode, reset the
/// environment, act epsilon-greedily, store transitions in replay, and
/// take one gradient step per environment step once `learningStart` steps
/// have elapsed. Produces the MetricsLog that Figure 4 is drawn from.
///
/// One collection loop serves every run and every rl::Agent (DqnAgent and
/// its variants, C51Agent): V lockstep envs behind a VectorEnv. Each
/// lockstep step runs ONE batched Q-forward over all V states (gemmABt
/// register tiles), selects V epsilon-greedy actions, steps all envs (the
/// docking VectorEnv scores all candidate poses in one batched receptor
/// sweep), then commits V transitions in env-index order. Epsilon and the
/// replay/target-sync cadences are counted in *transitions* (globalStep_),
/// not lockstep iterations. A Trainer over one scalar Environment runs the
/// same loop at V = 1 through a one-env LockstepVectorEnv, where it is
/// Algorithm 2 transition for transition: one shared RNG stream drawn in
/// selectAction's order, max and argmax from a qValuesBatch that is
/// bit-identical per row for any batch height, and a reset at every
/// episode start. Tests pin it bit for bit against a test-local copy of
/// Algorithm 2's one-env loop, for DqnAgent and C51Agent alike.

#include <functional>
#include <memory>

#include "src/common/rng.hpp"
#include "src/rl/agent.hpp"
#include "src/rl/env.hpp"
#include "src/rl/metrics.hpp"
#include "src/rl/replay_buffer.hpp"
#include "src/rl/schedule.hpp"
#include "src/rl/vector_env.hpp"

namespace dqndock::rl {

struct TrainerConfig {
  std::size_t episodes = 1800;        ///< M (Table 1)
  std::size_t learningStart = 10000;  ///< steps before SGD begins (Table 1)
  std::size_t learnEvery = 1;         ///< gradient step per this many env steps
  EpsilonSchedule epsilon{};          ///< includes the 20k pure-exploration steps
  std::uint64_t seed = 42;
  std::size_t logEveryEpisodes = 0;   ///< progress log cadence; 0 = silent
};

/// Exploration stream for one env of a V > 1 run, derived from
/// (seed, env index) only — the ligandScreenStream idiom — so a V-env
/// run is reproducible regardless of thread count or scheduling. A
/// single-env run keeps the trainer's one shared stream (also used by
/// learn()), so it draws exactly what Algorithm 2 draws.
Rng trainerEnvStream(std::uint64_t seed, std::uint64_t envIndex);

class Trainer {
 public:
  /// Trains on one scalar Environment: the lockstep loop at V = 1 over
  /// a one-env LockstepVectorEnv that wraps `env` (which must outlive
  /// the trainer). `replay` is used both as sink (push) and source
  /// (sample); pass the same object twice when using a plain ReplayBuffer.
  Trainer(Environment& env, Agent& agent, ExperienceSink& sink, ExperienceSource& source,
          TrainerConfig config);

  /// Trains on envs.size() lockstep envs. Episode records enter the
  /// metrics in completion order; run() stops once config.episodes
  /// episodes have completed (transitions from the other envs'
  /// unfinished episodes still train the agent).
  Trainer(VectorEnv& envs, Agent& agent, ExperienceSink& sink, ExperienceSource& source,
          TrainerConfig config);

  /// Run config.episodes more episodes, each env starting a fresh one;
  /// returns the accumulated metrics.
  const MetricsLog& run();

  /// Collect until one more episode is recorded; returns its record.
  /// Needs a single env (throws for V > 1, where the other envs'
  /// episodes would be cut off mid-way; use run()).
  EpisodeRecord runEpisode();

  /// Evaluate the greedy policy (no exploration, no learning) for one
  /// episode on env 0, outside the lockstep batch; returns its record
  /// without touching the training metrics. Each step picks through the
  /// same epsilon-greedy helper as the loop at epsilon 0, so it still
  /// draws one uniform() from the shared stream, as Algorithm 2's
  /// selectAction does, and training after an evaluation sees that draw.
  EpisodeRecord evaluateGreedy();

  std::size_t globalStep() const { return globalStep_; }
  const MetricsLog& metrics() const { return metrics_; }

  /// Optional callback invoked after every episode (progress reporting).
  void setEpisodeCallback(std::function<void(const EpisodeRecord&)> cb) {
    episodeCallback_ = std::move(cb);
  }

 private:
  /// The one collection loop: steps all envs in lockstep until
  /// `episodes` more episodes are recorded.
  const MetricsLog& collect(std::size_t episodes);
  /// Stream for env i's action selection. V=1 uses the single stream
  /// that learn() also draws from, as Algorithm 2 does; V>1 keys one
  /// independent stream per env.
  Rng& actionRng(std::size_t i);
  void logEpisode(const EpisodeRecord& record) const;

  std::unique_ptr<LockstepVectorEnv> ownedEnvs_;  ///< set when built from one Environment
  VectorEnv* venv_ = nullptr;
  Agent& agent_;
  ExperienceSink& sink_;
  ExperienceSource& source_;
  TrainerConfig config_;
  Rng rng_;
  std::vector<Rng> envRngs_;  ///< per-env streams, only populated for V > 1
  MetricsLog metrics_;
  std::size_t globalStep_ = 0;
  std::size_t episodeIndex_ = 0;
  std::function<void(const EpisodeRecord&)> episodeCallback_;
};

}  // namespace dqndock::rl
