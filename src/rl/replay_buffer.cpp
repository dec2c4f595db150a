#include "src/rl/replay_buffer.hpp"

#include <stdexcept>

namespace dqndock::rl {

ReplayBuffer::ReplayBuffer(std::size_t capacity, std::size_t stateDim)
    : capacity_(capacity), stateDim_(stateDim) {
  if (capacity == 0) throw std::invalid_argument("ReplayBuffer: capacity must be > 0");
  if (stateDim == 0) throw std::invalid_argument("ReplayBuffer: stateDim must be > 0");
  states_.resize(capacity * stateDim);
  nextStates_.resize(capacity * stateDim);
  actions_.resize(capacity);
  rewards_.resize(capacity);
  terminals_.resize(capacity);
}

void ReplayBuffer::push(std::span<const double> state, int action, double reward,
                        std::span<const double> nextState, bool terminal) {
  if (state.size() != stateDim_ || nextState.size() != stateDim_) {
    throw std::invalid_argument("ReplayBuffer::push: state dim mismatch");
  }
  float* s = states_.data() + head_ * stateDim_;
  float* s2 = nextStates_.data() + head_ * stateDim_;
  for (std::size_t i = 0; i < stateDim_; ++i) {
    s[i] = static_cast<float>(state[i]);
    s2[i] = static_cast<float>(nextState[i]);
  }
  actions_[head_] = action;
  rewards_[head_] = static_cast<float>(reward);
  terminals_[head_] = terminal ? 1 : 0;
  head_ = (head_ + 1) % capacity_;
  if (count_ < capacity_) ++count_;
}

Minibatch ReplayBuffer::sample(std::size_t batch, Rng& rng) const {
  Minibatch mb;
  sampleInto(mb, batch, rng);
  return mb;
}

void ReplayBuffer::shapeMinibatch(Minibatch& mb, std::size_t batch) const {
  // Overwrite-resize: every row is filled by copyRow, and a steady-state
  // learn loop passes the same-shaped minibatch back in, so this is
  // pure reuse — no allocation, no zero sweep over 2 x B x stateDim.
  mb.states.resizeOverwrite(batch, stateDim_);
  mb.nextStates.resizeOverwrite(batch, stateDim_);
  mb.actions.resize(batch);
  mb.rewards.resize(batch);
  mb.terminals.resize(batch);
}

void ReplayBuffer::copyRow(std::size_t slot, Minibatch& mb, std::size_t row) const {
  const float* s = states_.data() + slot * stateDim_;
  const float* s2 = nextStates_.data() + slot * stateDim_;
  double* ms = mb.states.data() + row * stateDim_;
  double* ms2 = mb.nextStates.data() + row * stateDim_;
  for (std::size_t i = 0; i < stateDim_; ++i) {
    ms[i] = s[i];
    ms2[i] = s2[i];
  }
  mb.actions[row] = actions_[slot];
  mb.rewards[row] = rewards_[slot];
  mb.terminals[row] = terminals_[slot];
}

void ReplayBuffer::sampleInto(Minibatch& mb, std::size_t batch, Rng& rng) const {
  if (count_ == 0) throw std::logic_error("ReplayBuffer::sample: buffer is empty");
  shapeMinibatch(mb, batch);
  for (std::size_t b = 0; b < batch; ++b) copyRow(rng.uniformInt(count_), mb, b);
}

void ReplayBuffer::gatherInto(Minibatch& mb, std::span<const std::size_t> slots) const {
  for (std::size_t slot : slots) {
    if (slot >= count_) throw std::out_of_range("ReplayBuffer::gatherInto: slot not filled");
  }
  shapeMinibatch(mb, slots.size());
  for (std::size_t b = 0; b < slots.size(); ++b) copyRow(slots[b], mb, b);
}

std::size_t ReplayBuffer::memoryBytes() const {
  return states_.size() * sizeof(float) + nextStates_.size() * sizeof(float) +
         actions_.size() * sizeof(int) + rewards_.size() * sizeof(float) + terminals_.size();
}

}  // namespace dqndock::rl
