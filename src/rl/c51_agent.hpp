#pragma once

/// \file c51_agent.hpp
/// Categorical / distributional DQN ("C51", Bellemare et al. 2017) —
/// explicitly named by the paper (Section 5, via the Rainbow survey
/// [17]) as a future-work variant for DQN-Docking.
///
/// Instead of a scalar Q per action the network outputs a categorical
/// distribution over `atoms` fixed support points z_i in [vMin, vMax];
/// actions are ranked by the distribution's expectation, and learning
/// minimizes the cross-entropy against the Bellman-projected target
/// distribution.

#include <memory>
#include <span>
#include <vector>

#include "src/nn/mlp.hpp"
#include "src/nn/optimizer.hpp"
#include "src/rl/agent.hpp"
#include "src/rl/replay_buffer.hpp"

namespace dqndock::rl {

struct C51Config {
  double gamma = 0.99;
  double learningRate = 0.00025;
  std::string optimizer = "adam";
  std::size_t batchSize = 32;
  std::size_t targetSyncInterval = 1000;
  std::vector<std::size_t> hiddenSizes = {135, 135};
  int atoms = 51;        ///< support resolution (the "51" in C51)
  double vMin = -10.0;   ///< support lower bound (return units)
  double vMax = 10.0;    ///< support upper bound
};

class C51Agent final : public Agent {
 public:
  C51Agent(std::size_t stateDim, int actionCount, C51Config config, Rng& rng,
           ThreadPool* pool = nullptr);

  std::size_t stateDim() const { return stateDim_; }
  int actionCount() const { return actions_; }
  const C51Config& config() const { return config_; }
  const std::vector<double>& support() const { return support_; }

  /// Fold the constant state prefix out of both nets' input layers (see
  /// DqnAgent::enableStaticPrefixFold). Once active, state-taking entry
  /// points accept full-width states or just the dynamic suffix.
  bool enableStaticPrefixFold(std::span<const double> staticPrefix);
  bool foldActive() const { return online_.foldActive(); }
  std::size_t dynamicStateDim() const { return online_.dynamicInputDim(); }

  /// Expected Q per action (the distribution means) for a batch of
  /// states, one row per state; q is resized to rows x actionCount. Each
  /// mean sums probability x support atom by atom in support order, so a
  /// row is bit-identical to the same state's one-row call.
  void qValuesBatch(const nn::Tensor& states, nn::Tensor& q) const override;

  /// Expected Q per action for one state: a one-row qValuesBatch.
  std::vector<double> expectedQ(std::span<const double> state) const;

  /// Categorical distribution for one state-action (sums to 1).
  std::vector<double> distribution(std::span<const double> state, int action) const;

  int greedyAction(std::span<const double> state) const;
  int selectAction(std::span<const double> state, double epsilon, Rng& rng) const;
  double maxQ(std::span<const double> state) const;

  /// One C51 update (categorical projection + cross-entropy step).
  /// Returns the minibatch loss; no-op below batchSize transitions.
  double learn(ExperienceSource& source, Rng& rng) override;

  void syncTarget() { target_.copyWeightsFrom(online_); }
  std::size_t learnSteps() const { return learnSteps_; }

 private:
  /// Per-(row, action) softmax over the atom block of `logits`.
  void softmaxBlocks(const nn::Tensor& logits, nn::Tensor& probs) const;
  /// Throws unless `cols` is the full state width, or the dynamic width
  /// while the fold is active.
  void checkStateDim(std::size_t cols) const;

  std::size_t stateDim_;
  int actions_;
  C51Config config_;
  std::vector<double> support_;
  double deltaZ_;
  nn::Mlp online_;
  nn::Mlp target_;
  std::unique_ptr<nn::Optimizer> optimizer_;
  std::size_t learnSteps_ = 0;
  mutable nn::Tensor scratchState_, scratchLogits_, scratchProbs_;

  // learn() scratch, reused across calls.
  Minibatch mbScratch_;
  nn::Tensor nextLogits_, nextProbs_, mProj_, probs_, dLogits_;
};

}  // namespace dqndock::rl
