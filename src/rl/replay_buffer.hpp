#pragma once

/// \file replay_buffer.hpp
/// Experience replay (Lin 1993; Mnih et al. 2015): a fixed-capacity ring
/// of (s, a, r, s', terminal) tuples sampled uniformly in minibatches to
/// decorrelate consecutive docking steps.
///
/// Two implementations share the ExperienceSource interface:
///  * ReplayBuffer — stores raw state vectors (float32), the paper's
///    design; memory scales with stateDim (16,599 reals for 2BSM).
///  * Compact, pose-based storage lives in core/pose_replay.hpp: it
///    stores only the 7+K pose DOFs and re-encodes states at sample time
///    — the "RAM-based" refinement of paper Section 5.

#include <cstddef>
#include <span>
#include <vector>

#include "src/common/rng.hpp"
#include "src/nn/tensor.hpp"

namespace dqndock::rl {

/// A sampled minibatch in the layout the DQN update consumes.
struct Minibatch {
  nn::Tensor states;      ///< B x stateDim
  nn::Tensor nextStates;  ///< B x stateDim
  std::vector<int> actions;
  std::vector<double> rewards;
  std::vector<char> terminals;

  std::size_t size() const { return actions.size(); }
};

/// Anything minibatches can be drawn from.
class ExperienceSource {
 public:
  virtual ~ExperienceSource() = default;
  virtual std::size_t size() const = 0;
  virtual Minibatch sample(std::size_t batch, Rng& rng) const = 0;

  /// Sample into a caller-owned minibatch so learn-phase callers can
  /// reuse the (batch x stateDim) tensors across calls instead of
  /// reallocating and zero-filling per minibatch. The default routes
  /// through sample(); implementations that can fill in place (the raw
  /// and the prioritized ReplayBuffer) override it. Draws the same RNG
  /// sequence as sample(), so switching call styles never perturbs a
  /// seeded run.
  virtual void sampleInto(Minibatch& mb, std::size_t batch, Rng& rng) const {
    mb = sample(batch, rng);
  }
};

/// Anything transitions can be pushed into (the trainer writes here).
class ExperienceSink {
 public:
  virtual ~ExperienceSink() = default;
  virtual void push(std::span<const double> state, int action, double reward,
                    std::span<const double> nextState, bool terminal) = 0;
};

/// Uniform ring-buffer replay storing raw states as float32.
class ReplayBuffer final : public ExperienceSource, public ExperienceSink {
 public:
  ReplayBuffer(std::size_t capacity, std::size_t stateDim);

  void push(std::span<const double> state, int action, double reward,
            std::span<const double> nextState, bool terminal) override;

  std::size_t size() const override { return count_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t stateDim() const { return stateDim_; }

  Minibatch sample(std::size_t batch, Rng& rng) const override;

  /// In-place fill: reuses mb's tensors/vectors when the batch shape
  /// matches (no allocation, no zero pass).
  void sampleInto(Minibatch& mb, std::size_t batch, Rng& rng) const override;

  /// The same in-place fill from chosen slots: row b of mb is the
  /// transition in slots[b] (each < size()). Non-uniform samplers that
  /// keep their own slot index (PrioritizedReplayBuffer) draw through it.
  void gatherInto(Minibatch& mb, std::span<const std::size_t> slots) const;

  /// The slot the next push() writes (the ring's head).
  std::size_t nextSlot() const { return head_; }

  /// Approximate resident bytes of the stored experience.
  std::size_t memoryBytes() const;

 private:
  /// Size mb for `batch` rows without zero-filling its tensors.
  void shapeMinibatch(Minibatch& mb, std::size_t batch) const;
  /// Copy the transition in `slot` into row `row` of mb.
  void copyRow(std::size_t slot, Minibatch& mb, std::size_t row) const;

  std::size_t capacity_;
  std::size_t stateDim_;
  std::size_t count_ = 0;
  std::size_t head_ = 0;

  // SoA slots: states/nextStates are flattened (capacity x stateDim).
  std::vector<float> states_;
  std::vector<float> nextStates_;
  std::vector<int> actions_;
  std::vector<float> rewards_;
  std::vector<char> terminals_;
};

}  // namespace dqndock::rl
