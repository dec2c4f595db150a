#include "src/rl/vector_env.hpp"

#include <algorithm>
#include <stdexcept>

namespace dqndock::rl {

LockstepVectorEnv::LockstepVectorEnv(std::vector<Environment*> envs) : envs_(std::move(envs)) {
  if (envs_.empty()) throw std::invalid_argument("LockstepVectorEnv: need at least one env");
  for (const Environment* e : envs_) {
    if (!e) throw std::invalid_argument("LockstepVectorEnv: null env");
    if (e->stateDim() != envs_.front()->stateDim() ||
        e->actionCount() != envs_.front()->actionCount()) {
      throw std::invalid_argument("LockstepVectorEnv: envs must share stateDim/actionCount");
    }
  }
}

std::size_t LockstepVectorEnv::stateDim() const { return envs_.front()->stateDim(); }

int LockstepVectorEnv::actionCount() const { return envs_.front()->actionCount(); }

void LockstepVectorEnv::reset(std::size_t i, std::span<double> state) {
  if (state.size() != stateDim()) {
    throw std::invalid_argument("LockstepVectorEnv::reset: state span size != stateDim()");
  }
  envs_[i]->reset(scratch_);
  std::copy(scratch_.begin(), scratch_.end(), state.begin());
}

void LockstepVectorEnv::step(std::span<const int> actions, nn::Tensor& nextStates,
                             std::span<EnvStep> results) {
  if (actions.size() != envs_.size() || results.size() != envs_.size()) {
    throw std::invalid_argument("LockstepVectorEnv::step: actions/results size != size()");
  }
  if (nextStates.rows() != envs_.size() || nextStates.cols() != stateDim()) {
    throw std::invalid_argument("LockstepVectorEnv::step: nextStates shape mismatch");
  }
  for (std::size_t i = 0; i < envs_.size(); ++i) {
    results[i] = stepOne(i, actions[i], nextStates.row(i));
  }
}

EnvStep LockstepVectorEnv::stepOne(std::size_t i, int action, std::span<double> nextState) {
  if (nextState.size() != stateDim()) {
    throw std::invalid_argument("LockstepVectorEnv::stepOne: state span size != stateDim()");
  }
  const EnvStep result = envs_[i]->step(action, scratch_);
  std::copy(scratch_.begin(), scratch_.end(), nextState.begin());
  return result;
}

}  // namespace dqndock::rl
