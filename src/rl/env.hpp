#pragma once

/// \file env.hpp
/// Abstract reinforcement-learning environment (Figure 2 of the paper):
/// the agent observes a flat real-valued state, takes one of K discrete
/// actions, and receives a reward plus a terminal flag. DQN-Docking's
/// METADOCK wrapper, the file-based wrapper and the toy test environments
/// all implement this.

#include <cstddef>
#include <vector>

namespace dqndock::rl {

struct EnvStep {
  double reward = 0.0;
  bool terminal = false;
  /// Env-specific reason the episode ended (docking: metadock::Termination);
  /// 0 when the env reports none. The trainer copies it into the
  /// episode's EpisodeRecord::terminationCode.
  int terminationCode = 0;
};

class Environment {
 public:
  virtual ~Environment() = default;

  virtual std::size_t stateDim() const = 0;
  virtual int actionCount() const = 0;

  /// Start a new episode; fills `state` (resized to stateDim()).
  virtual void reset(std::vector<double>& state) = 0;

  /// Apply `action`; fills `nextState` and returns reward/terminal.
  virtual EnvStep step(int action, std::vector<double>& nextState) = 0;

  /// Optional domain metric for logging (docking: the METADOCK score).
  virtual double score() const { return 0.0; }
};

}  // namespace dqndock::rl
