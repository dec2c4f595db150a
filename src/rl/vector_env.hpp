#pragma once

/// \file vector_env.hpp
/// Lockstep vectorized environments. A VectorEnv owns V independent
/// episode streams advanced together: the trainer hands it one action
/// per env and receives one transition per env, with all next states
/// written into rows of a single V x stateDim tensor — the shape the
/// batched Q-forward (gemmABt register tiles) consumes directly.
///
/// Ownership contract: experience collection belongs to VectorEnv + the
/// Trainer's one lockstep loop; it is the only collection path. A
/// trainer over a single scalar Environment steps it through a one-env
/// LockstepVectorEnv. `batchedSteps` counts the step() calls that
/// batched work across envs, so tests can assert which implementation
/// did the stepping.
///
/// Episode boundaries: step() does NOT auto-reset. When results[i]
/// reports terminal, the caller records the episode and calls
/// reset(i, row) before the next lockstep step — the env call order of
/// the paper's Algorithm 2 (reset at episode start), which is part of
/// why the loop at V=1 reproduces Algorithm 2 bit-for-bit.

#include <cstddef>
#include <span>
#include <vector>

#include "src/nn/tensor.hpp"
#include "src/rl/env.hpp"

namespace dqndock::rl {

class VectorEnv {
 public:
  virtual ~VectorEnv() = default;

  /// Number of lockstep envs V.
  virtual std::size_t size() const = 0;
  virtual std::size_t stateDim() const = 0;
  virtual int actionCount() const = 0;

  /// Start a new episode in env i; writes its initial state into `state`
  /// (exactly stateDim() doubles — typically a row of the state tensor).
  virtual void reset(std::size_t i, std::span<double> state) = 0;

  /// Lockstep step: apply actions[i] to env i for all i. `nextStates`
  /// must be pre-shaped size() x stateDim(); row i receives env i's next
  /// state. `results` must hold size() entries.
  virtual void step(std::span<const int> actions, nn::Tensor& nextStates,
                    std::span<EnvStep> results) = 0;

  /// Step a single env outside the lockstep batch (greedy evaluation
  /// plays env 0 on its own; at V=1 this is also the bit-identity path).
  virtual EnvStep stepOne(std::size_t i, int action, std::span<double> nextState) = 0;

  /// Domain metric of env i (docking: the METADOCK score).
  virtual double score(std::size_t i) const = 0;

  /// Number of step() calls that actually batched work across envs
  /// (implementations that fall back to per-env stepping report 0).
  virtual std::size_t batchedSteps() const { return 0; }
};

/// Generic lockstep wrapper over scalar Environments: steps each env
/// sequentially inside step(). No batching (batchedSteps() stays 0) —
/// this is the reference semantics used by tests and by envs without a
/// batched fast path. Non-owning: the caller keeps every env alive for
/// the wrapper's lifetime (a Trainer over one Environment wraps it here).
class LockstepVectorEnv final : public VectorEnv {
 public:
  explicit LockstepVectorEnv(std::vector<Environment*> envs);

  std::size_t size() const override { return envs_.size(); }
  std::size_t stateDim() const override;
  int actionCount() const override;

  void reset(std::size_t i, std::span<double> state) override;
  void step(std::span<const int> actions, nn::Tensor& nextStates,
            std::span<EnvStep> results) override;
  EnvStep stepOne(std::size_t i, int action, std::span<double> nextState) override;
  double score(std::size_t i) const override { return envs_[i]->score(); }

 private:
  std::vector<Environment*> envs_;
  std::vector<double> scratch_;  ///< bridges the vector-based Environment API
};

}  // namespace dqndock::rl
