#pragma once

/// \file prioritized_replay.hpp
/// Proportional prioritized experience replay (Schaul et al. 2016):
/// transitions are sampled with probability proportional to
/// (|TD error| + eps)^alpha instead of uniformly, and importance weights
/// (1 / (N P))^beta correct the induced bias. One of the Rainbow
/// components (paper reference [17]) the authors name as future work.
///
/// Implements the same ExperienceSource/Sink interfaces as the uniform
/// buffer so the trainer and agent are unchanged, and keeps its
/// transitions in one: only the SumTree over its slots, beta and the
/// last minibatch's indices and weights live here. The agent
/// additionally feeds TD errors back through updatePriorities() when
/// the source supports it (see DqnAgent::learn).

#include "src/common/rng.hpp"
#include "src/rl/replay_buffer.hpp"
#include "src/rl/sum_tree.hpp"

namespace dqndock::rl {

/// Extension interface: sources that track priorities receive the TD
/// errors of the transitions they handed out.
class PrioritizedSource : public ExperienceSource {
 public:
  /// Indices of the transitions in the most recent minibatch (aligned
  /// with its rows) and their importance weights.
  virtual const std::vector<std::size_t>& lastSampledIndices() const = 0;
  virtual const std::vector<double>& lastImportanceWeights() const = 0;
  /// Feed back |TD error| per row of the last minibatch.
  virtual void updatePriorities(std::span<const double> tdErrors) = 0;
};

struct PrioritizedReplayConfig {
  double alpha = 0.6;          ///< prioritization strength (0 = uniform)
  double beta = 0.4;           ///< importance-correction strength
  double betaIncrement = 1e-5; ///< beta anneals toward 1 per sample() call
  double epsilon = 1e-3;       ///< keeps priorities strictly positive
  double maxPriority = 100.0;  ///< clamp on |TD| feedback
};

class PrioritizedReplayBuffer final : public PrioritizedSource, public ExperienceSink {
 public:
  PrioritizedReplayBuffer(std::size_t capacity, std::size_t stateDim,
                          PrioritizedReplayConfig config = {});

  // ExperienceSink: new transitions enter at the current max priority so
  // every transition is replayed at least once with high probability.
  void push(std::span<const double> state, int action, double reward,
            std::span<const double> nextState, bool terminal) override;

  std::size_t size() const override { return transitions_.size(); }
  std::size_t capacity() const { return transitions_.capacity(); }
  double beta() const { return beta_; }

  Minibatch sample(std::size_t batch, Rng& rng) const override;
  /// In place, like ReplayBuffer::sampleInto, with the same draws as
  /// sample().
  void sampleInto(Minibatch& mb, std::size_t batch, Rng& rng) const override;

  const std::vector<std::size_t>& lastSampledIndices() const override { return lastIndices_; }
  const std::vector<double>& lastImportanceWeights() const override { return lastWeights_; }
  void updatePriorities(std::span<const double> tdErrors) override;

  double priorityOf(std::size_t slot) const { return tree_.priority(slot); }

 private:
  ReplayBuffer transitions_;  ///< the ring; tree_ slot i prioritizes its slot i
  PrioritizedReplayConfig config_;
  double maxSeenPriority_ = 1.0;
  mutable double beta_;
  SumTree tree_;

  mutable std::vector<std::size_t> lastIndices_;
  mutable std::vector<double> lastWeights_;
};

}  // namespace dqndock::rl
