#pragma once

/// \file metrics.hpp
/// Per-episode training metrics. The headline series is the average
/// maximum predicted Q-value per episode — exactly what the paper's
/// Figure 4 plots to judge training quality.

#include <string>
#include <vector>

namespace dqndock::rl {

struct EpisodeRecord {
  std::size_t episode = 0;
  std::size_t steps = 0;
  double totalReward = 0.0;
  double avgMaxQ = 0.0;      ///< mean over steps of max_a Q(s_t, a)  (Figure 4)
  double finalScore = 0.0;   ///< env score at episode end
  double bestScore = 0.0;    ///< best env score seen during the episode
  double epsilon = 0.0;      ///< epsilon at the episode's last step
  int terminationCode = 0;   ///< why it ended: the last step's EnvStep::terminationCode
};

class MetricsLog {
 public:
  void add(const EpisodeRecord& r) { records_.push_back(r); }
  const std::vector<EpisodeRecord>& records() const { return records_; }
  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }

  /// Moving average of avgMaxQ with the given window (Figure 4 smoothing).
  std::vector<double> smoothedAvgMaxQ(std::size_t window) const;

  /// Mean avgMaxQ over episode index range [from, to).
  double meanAvgMaxQ(std::size_t from, std::size_t to) const;

  /// Best score across all recorded episodes.
  double bestScoreOverall() const;

  /// Dump all records to CSV.
  void writeCsv(const std::string& path) const;

 private:
  std::vector<EpisodeRecord> records_;
};

}  // namespace dqndock::rl
