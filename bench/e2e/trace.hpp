#pragma once

// In-memory span recording for traced runs, and the forwarding wrappers
// that record them around the public interfaces the trainer accepts
// (rl::Environment, rl::VectorEnv, rl::ExperienceSink/Source). The
// wrappers only forward: the train/collect workloads gate that a trainer
// driven through them is bit-identical to DqnDocking::train().
//
// The env wrappers also keep one timestamp per step whether or not spans
// are recorded — that is what the untraced run's latency percentiles
// come from (one clock read per step).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench/e2e/common.hpp"
#include "src/rl/env.hpp"
#include "src/rl/replay_buffer.hpp"
#include "src/rl/vector_env.hpp"

namespace e2e {

class SpanLog {
 public:
  /// While `recording` is false every call below is a no-op (the
  /// untraced half of a traced run, and untraced runs entirely).
  void setRecording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }

  /// Opens a parent span (an episode, a collect pass); children recorded
  /// until close() hang off it. Returns its id.
  std::uint64_t open(const char* name, Clock::time_point start);
  void close(std::uint64_t id, Clock::time_point end);

  void record(const char* name, Clock::time_point start, Clock::time_point end);

  /// Per-name summed duration and count of the recorded spans.
  double totalSeconds(const std::string& name) const;
  std::size_t count(const std::string& name) const;

  /// One JSON object per line: name, start_us, end_us, id, parent.
  void dump(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double startUs;  ///< from the log's epoch
    double endUs;
    std::uint64_t id;
    std::uint64_t parent;  ///< 0 = root
  };
  struct Total {
    std::size_t count = 0;
    double seconds = 0.0;
  };

  double micros(Clock::time_point t) const;

  bool recording_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::map<std::string, Total> totals_;
  std::uint64_t nextId_ = 1;
  std::uint64_t parent_ = 0;
};

class TracedEnv final : public dqndock::rl::Environment {
 public:
  TracedEnv(dqndock::rl::Environment& inner, SpanLog& log) : inner_(inner), log_(log) {}

  std::size_t stateDim() const override { return inner_.stateDim(); }
  int actionCount() const override { return inner_.actionCount(); }
  void reset(std::vector<double>& state) override;
  dqndock::rl::EnvStep step(int action, std::vector<double>& nextState) override;
  double score() const override { return inner_.score(); }

  /// Start time of every step() call so far.
  const std::vector<Clock::time_point>& stepStarts() const { return stepStarts_; }

 private:
  dqndock::rl::Environment& inner_;
  SpanLog& log_;
  std::vector<Clock::time_point> stepStarts_;
};

class TracedVectorEnv final : public dqndock::rl::VectorEnv {
 public:
  TracedVectorEnv(dqndock::rl::VectorEnv& inner, SpanLog& log) : inner_(inner), log_(log) {}

  std::size_t size() const override { return inner_.size(); }
  std::size_t stateDim() const override { return inner_.stateDim(); }
  int actionCount() const override { return inner_.actionCount(); }
  void reset(std::size_t i, std::span<double> state) override;
  void step(std::span<const int> actions, dqndock::nn::Tensor& nextStates,
            std::span<dqndock::rl::EnvStep> results) override;
  dqndock::rl::EnvStep stepOne(std::size_t i, int action, std::span<double> nextState) override {
    return inner_.stepOne(i, action, nextState);
  }
  double score(std::size_t i) const override { return inner_.score(i); }
  std::size_t batchedSteps() const override { return inner_.batchedSteps(); }

  /// Start time of every lockstep step() call so far.
  const std::vector<Clock::time_point>& stepStarts() const { return stepStarts_; }

 private:
  dqndock::rl::VectorEnv& inner_;
  SpanLog& log_;
  std::vector<Clock::time_point> stepStarts_;
};

/// Sink and source over one bench-owned ReplayBuffer.
class TracedReplay final : public dqndock::rl::ExperienceSink,
                           public dqndock::rl::ExperienceSource {
 public:
  TracedReplay(dqndock::rl::ReplayBuffer& inner, SpanLog& log) : inner_(inner), log_(log) {}

  void push(std::span<const double> state, int action, double reward,
            std::span<const double> nextState, bool terminal) override;
  std::size_t size() const override { return inner_.size(); }
  dqndock::rl::Minibatch sample(std::size_t batch, dqndock::Rng& rng) const override;
  void sampleInto(dqndock::rl::Minibatch& mb, std::size_t batch,
                  dqndock::Rng& rng) const override;

 private:
  dqndock::rl::ReplayBuffer& inner_;
  SpanLog& log_;
};

}  // namespace e2e
