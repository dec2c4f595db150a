#pragma once

/// \file agent.hpp
/// The learner the Trainer drives. Every variant the paper's Section 5
/// names trains through the one collection loop behind this interface:
/// DqnAgent (vanilla, Double and dueling DQN) and C51Agent (distributional
/// DQN, whose Q-value is the expectation of its categorical distribution).

#include "src/common/rng.hpp"
#include "src/nn/tensor.hpp"
#include "src/rl/replay_buffer.hpp"

namespace dqndock::rl {

class Agent {
 public:
  virtual ~Agent() = default;

  /// Q-values for a batch of states: one row per state, `q` resized to
  /// rows x actionCount. Each row is bit-identical to the same state's
  /// one-row call, so a run does not depend on how many envs share the
  /// batch.
  virtual void qValuesBatch(const nn::Tensor& states, nn::Tensor& q) const = 0;

  /// One learning step on a minibatch drawn from `source` with `rng`;
  /// returns the minibatch loss (0 while `source` holds too few
  /// transitions to learn from).
  virtual double learn(ExperienceSource& source, Rng& rng) = 0;
};

}  // namespace dqndock::rl
