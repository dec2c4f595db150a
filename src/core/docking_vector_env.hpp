#pragma once

/// \file docking_vector_env.hpp
/// V independent DockingEnv instances stepped in lockstep, with the per
/// step candidate poses of the whole population scored by ONE
/// PoseEvaluator::evaluateBatch call — a single receptor sweep through
/// the pose-batched SoA kernel instead of V scalar sweeps.
///
/// Bit-identity note: ScoringFunction::scoreBatch agrees with the scalar
/// scorePose path to ~1e-9 relative (different accumulation order), not
/// bitwise. At V=1 there is nothing to batch, so step() routes through
/// DockingEnv::step() — the exact scalar path DockingTask uses — which
/// is what makes a V=1 run reproduce a run on the task bit-for-bit.
/// For V>1 the batched scores are used for reward and
/// termination bookkeeping alike, so each run is self-consistent and
/// deterministic (evaluateBatch chunking is thread-count invariant).

#include <memory>
#include <vector>

#include "src/core/state_encoder.hpp"
#include "src/metadock/docking_env.hpp"
#include "src/rl/vector_env.hpp"

namespace dqndock::core {

class DockingVectorEnv final : public rl::VectorEnv {
 public:
  /// Builds `count` identical envs from the scenario. `pool` (may be
  /// nullptr) parallelizes the batched pose evaluation only; per-env
  /// scalar evaluation follows config.scoring.pool as usual.
  DockingVectorEnv(const chem::Scenario& scenario, const metadock::EnvConfig& config,
                   const StateEncoder& encoder, std::size_t count, ThreadPool* pool = nullptr);

  std::size_t size() const override { return envs_.size(); }
  std::size_t stateDim() const override {
    return dynamicStates_ ? encoder_.dynamicDim() : encoder_.dim();
  }
  int actionCount() const override { return envs_.front()->actionCount(); }

  /// When enabled, reset()/step()/stepOne() materialise only the dynamic
  /// suffix of each encoded state and stateDim() shrinks to match (see
  /// DockingTask::setDynamicStates).
  void setDynamicStates(bool on) { dynamicStates_ = on; }
  bool dynamicStates() const { return dynamicStates_; }

  void reset(std::size_t i, std::span<double> state) override;
  void step(std::span<const int> actions, nn::Tensor& nextStates,
            std::span<rl::EnvStep> results) override;
  rl::EnvStep stepOne(std::size_t i, int action, std::span<double> nextState) override;
  double score(std::size_t i) const override { return envs_[i]->score(); }

  std::size_t batchedSteps() const override { return batchedSteps_; }

  metadock::DockingEnv& env(std::size_t i) { return *envs_[i]; }
  const metadock::DockingEnv& env(std::size_t i) const { return *envs_[i]; }
  const StateEncoder& encoder() const { return encoder_; }

  /// Total scoring-function invocations across all envs plus the shared
  /// batched evaluator (the pose-evals/s numerator in bench_training).
  std::size_t evaluationCount() const;

 private:
  std::vector<std::unique_ptr<metadock::DockingEnv>> envs_;
  const StateEncoder& encoder_;
  /// Shared batched evaluator over env 0's scoring function. All envs
  /// are built from the same scenario, so one receptor/ligand model
  /// scores every env's candidate pose.
  std::unique_ptr<metadock::PoseEvaluator> evaluator_;
  std::vector<metadock::Pose> poses_;  ///< per-step candidate gather, reused
  std::size_t batchedSteps_ = 0;
  bool dynamicStates_ = false;
};

}  // namespace dqndock::core
