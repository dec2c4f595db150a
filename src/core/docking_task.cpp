#include "src/core/docking_task.hpp"

namespace dqndock::core {

DockingTask::DockingTask(metadock::DockingEnv& env, const StateEncoder& encoder)
    : env_(env), encoder_(encoder) {}

void DockingTask::reset(std::vector<double>& state) {
  env_.reset();
  previousPose_ = env_.pose();
  if (dynamicStates_) {
    encoder_.encodeDynamic(env_, state);
  } else {
    encoder_.encode(env_, state);
  }
}

rl::EnvStep DockingTask::step(int action, std::vector<double>& nextState) {
  previousPose_ = env_.pose();
  const metadock::StepResult result = env_.step(action);
  if (dynamicStates_) {
    encoder_.encodeDynamic(env_, nextState);
  } else {
    encoder_.encode(env_, nextState);
  }
  return {result.reward, result.terminal, static_cast<int>(result.reason)};
}

}  // namespace dqndock::core
