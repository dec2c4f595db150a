#include "src/rl/prioritized_replay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dqndock::rl {

PrioritizedReplayBuffer::PrioritizedReplayBuffer(std::size_t capacity, std::size_t stateDim,
                                                 PrioritizedReplayConfig config)
    : transitions_(capacity, stateDim), config_(config), beta_(config.beta), tree_(capacity) {}

void PrioritizedReplayBuffer::push(std::span<const double> state, int action, double reward,
                                   std::span<const double> nextState, bool terminal) {
  const std::size_t slot = transitions_.nextSlot();
  transitions_.push(state, action, reward, nextState, terminal);
  tree_.update(slot, std::pow(maxSeenPriority_, config_.alpha));
}

Minibatch PrioritizedReplayBuffer::sample(std::size_t batch, Rng& rng) const {
  Minibatch mb;
  sampleInto(mb, batch, rng);
  return mb;
}

void PrioritizedReplayBuffer::sampleInto(Minibatch& mb, std::size_t batch, Rng& rng) const {
  const std::size_t count = size();
  if (count == 0) throw std::logic_error("PrioritizedReplayBuffer::sample: buffer is empty");
  lastIndices_.resize(batch);
  lastWeights_.resize(batch);
  const double total = tree_.total();
  const double segment = total / static_cast<double>(batch);

  double maxWeight = 1e-12;
  for (std::size_t b = 0; b < batch; ++b) {
    // Stratified sampling: one draw per equal-mass segment.
    const double mass = segment * (static_cast<double>(b) + rng.uniform());
    const std::size_t idx = std::min(tree_.find(mass), count - 1);
    lastIndices_[b] = idx;

    const double p = tree_.priority(idx) / total;
    const double w = std::pow(static_cast<double>(count) * std::max(p, 1e-12), -beta_);
    lastWeights_[b] = w;
    maxWeight = std::max(maxWeight, w);
  }
  // Normalise weights by the max (standard PER stabilisation).
  for (double& w : lastWeights_) w /= maxWeight;
  beta_ = std::min(1.0, beta_ + config_.betaIncrement);
  transitions_.gatherInto(mb, lastIndices_);
}

void PrioritizedReplayBuffer::updatePriorities(std::span<const double> tdErrors) {
  if (tdErrors.size() != lastIndices_.size()) {
    throw std::invalid_argument(
        "PrioritizedReplayBuffer::updatePriorities: size mismatch with last minibatch");
  }
  for (std::size_t b = 0; b < tdErrors.size(); ++b) {
    const double magnitude =
        std::min(std::fabs(tdErrors[b]), config_.maxPriority) + config_.epsilon;
    maxSeenPriority_ = std::max(maxSeenPriority_, magnitude);
    tree_.update(lastIndices_[b], std::pow(magnitude, config_.alpha));
  }
}

}  // namespace dqndock::rl
