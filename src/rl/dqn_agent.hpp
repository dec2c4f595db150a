#pragma once

/// \file dqn_agent.hpp
/// Deep Q-Network agent (Mnih et al. 2013/2015) with the paper's
/// Section 5 variants: Double DQN target computation (van Hasselt 2016)
/// and the dueling architecture. Owns the online and frozen target
/// networks and performs one gradient step per learn() call on a
/// minibatch drawn from an ExperienceSource.

#include <memory>
#include <span>
#include <vector>

#include "src/rl/agent.hpp"
#include "src/rl/qnetwork.hpp"
#include "src/rl/replay_buffer.hpp"
#include "src/nn/optimizer.hpp"

namespace dqndock::rl {

enum class DqnVariant : unsigned char {
  kVanilla = 0,  ///< y = r + g * max_a Q_target(s', a)            (the paper)
  kDouble,       ///< y = r + g * Q_target(s', argmax_a Q_online)  (DDQN)
};

const char* dqnVariantName(DqnVariant v);

struct DqnConfig {
  double gamma = 0.99;                       ///< discount (Table 1)
  double learningRate = 0.00025;             ///< RMSprop lr (Table 1)
  std::string optimizer = "rmsprop";         ///< "rmsprop" | "adam" | "sgd"
  std::size_t batchSize = 32;                ///< minibatch (Table 1)
  std::size_t targetSyncInterval = 1000;     ///< C steps (Table 1)
  std::vector<std::size_t> hiddenSizes = {135, 135};  ///< hidden layers (Table 1)
  DqnVariant variant = DqnVariant::kVanilla;
  bool dueling = false;                      ///< dueling head (Section 5)
  /// Clip the temporal-difference error to [-1, 1] before backprop
  /// (the DQN "reward clipping"/robust-gradient trick).
  bool clipTdError = true;
  /// Multi-step return length n: transitions from an NStepSink carry
  /// n-step rewards, so the bootstrap discount becomes gamma^n. Keep 1
  /// for ordinary one-step replay.
  int nStep = 1;
  /// Soft (Polyak) target updates: when tau > 0 the target tracks
  /// target <- (1 - tau) * target + tau * online after every learn()
  /// call instead of the hard copy every `targetSyncInterval` steps.
  double polyakTau = 0.0;
};

class DqnAgent final : public Agent {
 public:
  DqnAgent(std::size_t stateDim, int actionCount, DqnConfig config, Rng& rng,
           ThreadPool* pool = nullptr);

  std::size_t stateDim() const { return online_->inputDim(); }
  int actionCount() const { return online_->actionCount(); }
  const DqnConfig& config() const { return config_; }

  /// Fold the constant state prefix out of both the online and target
  /// input layers (nn::Mlp::configureStaticPrefix; the plain and the
  /// dueling net both run on one). Returns false — and leaves both nets
  /// unfolded — when the prefix is degenerate. Once active, every
  /// state-taking entry point accepts either full-width states or just
  /// the dynamicStateDim() suffix, and learn() routes the input-layer
  /// weight update through the rank-1 factored path.
  bool enableStaticPrefixFold(std::span<const double> staticPrefix);
  bool foldActive() const { return online_->foldActive(); }
  std::size_t dynamicStateDim() const { return online_->dynamicInputDim(); }

  /// Epsilon-greedy action for one state.
  int selectAction(std::span<const double> state, double epsilon, Rng& rng) const;

  /// Boltzmann (softmax) exploration: sample an action with probability
  /// proportional to exp(Q / temperature). temperature -> 0 approaches
  /// greedy; large temperatures approach uniform.
  int selectActionSoftmax(std::span<const double> state, double temperature, Rng& rng) const;

  /// Greedy action (epsilon = 0).
  int greedyAction(std::span<const double> state) const;

  /// Q-values predicted by the online network for one state.
  std::vector<double> qValues(std::span<const double> state) const;

  /// Online-network Q-values for a batch of states (one row per state,
  /// q resized to rows x actionCount). Bit-identical per row to
  /// qValues(): predict() routes any row count through the same gemmABt
  /// register-tile path. The vectorized trainer folds all V per-env
  /// maxQ/greedy lookups into one of these calls.
  void qValuesBatch(const nn::Tensor& states, nn::Tensor& q) const override;

  /// max_a Q(s, a) — the quantity Figure 4 tracks per time-step.
  double maxQ(std::span<const double> state) const;

  /// One DQN update from `source`; returns the minibatch loss. No-op
  /// (returns 0) when the source holds fewer than batchSize transitions.
  /// Automatically syncs the target network every C calls. When `source`
  /// is a PrioritizedSource, importance weights are applied to the loss
  /// and |TD| errors are fed back as new priorities.
  double learn(ExperienceSource& source, Rng& rng) override;

  /// Force target <- online.
  void syncTarget();

  std::size_t learnSteps() const { return learnSteps_; }

  QNetwork& online() { return *online_; }
  const QNetwork& online() const { return *online_; }
  const QNetwork& target() const { return *target_; }

 private:
  DqnConfig config_;
  std::unique_ptr<QNetwork> online_;
  std::unique_ptr<QNetwork> target_;
  std::unique_ptr<nn::Optimizer> optimizer_;
  std::size_t learnSteps_ = 0;

  // learn() scratch, reused across calls (shapes are steady-state
  // constant, so after the first call these never reallocate).
  Minibatch mbScratch_;
  nn::Tensor nextQTarget_, nextQOnline_, dq_;
  std::vector<double> targets_, tdErrors_;
};

}  // namespace dqndock::rl
