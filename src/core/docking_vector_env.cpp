#include "src/core/docking_vector_env.hpp"

#include <stdexcept>

namespace dqndock::core {

DockingVectorEnv::DockingVectorEnv(const chem::Scenario& scenario,
                                   const metadock::EnvConfig& config, const StateEncoder& encoder,
                                   std::size_t count, ThreadPool* pool)
    : encoder_(encoder) {
  if (count == 0) throw std::invalid_argument("DockingVectorEnv: need at least one env");
  envs_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    envs_.push_back(std::make_unique<metadock::DockingEnv>(scenario, config));
  }
  evaluator_ = std::make_unique<metadock::PoseEvaluator>(envs_.front()->scoring(), pool);
}

void DockingVectorEnv::reset(std::size_t i, std::span<double> state) {
  envs_[i]->reset();
  if (dynamicStates_) {
    encoder_.encodeDynamic(*envs_[i], state);
  } else {
    encoder_.encode(*envs_[i], state);
  }
}

void DockingVectorEnv::step(std::span<const int> actions, nn::Tensor& nextStates,
                            std::span<rl::EnvStep> results) {
  const std::size_t v = envs_.size();
  if (actions.size() != v || results.size() != v) {
    throw std::invalid_argument("DockingVectorEnv::step: actions/results size != size()");
  }
  if (nextStates.rows() != v || nextStates.cols() != stateDim()) {
    throw std::invalid_argument("DockingVectorEnv::step: nextStates shape mismatch");
  }
  if (v == 1) {
    // Nothing to batch: take the scalar path (bit-identical to
    // DockingTask's DockingEnv::step).
    results[0] = stepOne(0, actions[0], nextStates.row(0));
    return;
  }

  // Gather one candidate pose per env, score the whole population in a
  // single batched receptor sweep, then commit each env.
  poses_.clear();
  for (std::size_t i = 0; i < v; ++i) poses_.push_back(envs_[i]->candidatePose(actions[i]));
  const std::vector<double> scores = evaluator_->evaluateBatch(poses_);
  for (std::size_t i = 0; i < v; ++i) {
    const metadock::StepResult r = envs_[i]->stepScored(poses_[i], scores[i]);
    if (dynamicStates_) {
      encoder_.encodeDynamic(*envs_[i], nextStates.row(i));
    } else {
      encoder_.encode(*envs_[i], nextStates.row(i));
    }
    results[i] = {r.reward, r.terminal, static_cast<int>(r.reason)};
  }
  ++batchedSteps_;
}

rl::EnvStep DockingVectorEnv::stepOne(std::size_t i, int action, std::span<double> nextState) {
  const metadock::StepResult r = envs_[i]->step(action);
  if (dynamicStates_) {
    encoder_.encodeDynamic(*envs_[i], nextState);
  } else {
    encoder_.encode(*envs_[i], nextState);
  }
  return {r.reward, r.terminal, static_cast<int>(r.reason)};
}

std::size_t DockingVectorEnv::evaluationCount() const {
  std::size_t total = evaluator_->evaluationCount();
  for (const auto& e : envs_) total += e->evaluationCount();
  return total;
}

}  // namespace dqndock::core
