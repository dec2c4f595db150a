#include "src/rl/trainer.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/common/logging.hpp"
#include "src/common/running_stats.hpp"

namespace dqndock::rl {

Rng trainerEnvStream(std::uint64_t seed, std::uint64_t envIndex) {
  // Per-index derivation (not sequential split()), the same idiom as
  // metadock::ligandScreenStream: the stream is a pure function of
  // (seed, env index), never of V or scheduling.
  return Rng(seed ^ (0x9e3779b97f4a7c15ULL * (envIndex + 1)));
}

Trainer::Trainer(Environment& env, DqnAgent& agent, ExperienceSink& sink,
                 ExperienceSource& source, TrainerConfig config)
    : ownedEnvs_(std::make_unique<LockstepVectorEnv>(std::vector<Environment*>{&env})),
      venv_(ownedEnvs_.get()), agent_(agent), sink_(sink), source_(source), config_(config),
      rng_(config.seed) {}

Trainer::Trainer(VectorEnv& envs, DqnAgent& agent, ExperienceSink& sink,
                 ExperienceSource& source, TrainerConfig config)
    : venv_(&envs), agent_(agent), sink_(sink), source_(source), config_(config),
      rng_(config.seed) {
  if (envs.size() > 1) {
    envRngs_.reserve(envs.size());
    for (std::size_t i = 0; i < envs.size(); ++i) {
      envRngs_.push_back(trainerEnvStream(config_.seed, i));
    }
  }
}

Rng& Trainer::actionRng(std::size_t i) { return envRngs_.empty() ? rng_ : envRngs_[i]; }

namespace {
/// Presents one env of a VectorEnv as a scalar Environment so greedy
/// evaluation can play env 0 outside the lockstep batch.
class VectorEnvSlice final : public Environment {
 public:
  VectorEnvSlice(VectorEnv& envs, std::size_t index) : envs_(envs), index_(index) {}

  std::size_t stateDim() const override { return envs_.stateDim(); }
  int actionCount() const override { return envs_.actionCount(); }

  void reset(std::vector<double>& state) override {
    state.resize(envs_.stateDim());
    envs_.reset(index_, state);
  }

  EnvStep step(int action, std::vector<double>& nextState) override {
    nextState.resize(envs_.stateDim());
    return envs_.stepOne(index_, action, nextState);
  }

  double score() const override { return envs_.score(index_); }

 private:
  VectorEnv& envs_;
  std::size_t index_;
};
}  // namespace

EpisodeRecord Trainer::evaluateGreedy() {
  VectorEnvSlice env(*venv_, 0);
  std::vector<double> state;
  std::vector<double> nextState;
  env.reset(state);

  EpisodeRecord record;
  record.episode = episodeIndex_;
  record.finalScore = env.score();
  record.bestScore = env.score();
  RunningStats maxQ;

  bool terminal = false;
  while (!terminal) {
    // Figure 4 metric: the maximum predicted Q for the current state.
    maxQ.add(agent_.maxQ(state));

    // At epsilon 0 selectAction still draws one uniform() from the
    // shared stream, so training after an evaluation sees that draw.
    const int action = agent_.selectAction(state, /*epsilon=*/0.0, rng_);
    const EnvStep result = env.step(action, nextState);
    record.totalReward += result.reward;
    record.terminationCode = result.terminationCode;
    terminal = result.terminal;
    state = nextState;
    ++record.steps;

    const double score = env.score();
    record.finalScore = score;
    record.bestScore = std::max(record.bestScore, score);
  }

  record.avgMaxQ = maxQ.count() ? maxQ.mean() : 0.0;
  return record;
}

EpisodeRecord Trainer::runEpisode() {
  if (venv_->size() != 1) {
    throw std::logic_error(
        "Trainer::runEpisode: needs a single env (with V > 1 lockstep envs the other envs' "
        "episodes would be cut off); use run()");
  }
  return collect(1).records().back();
}

void Trainer::logEpisode(const EpisodeRecord& record) const {
  if (config_.logEveryEpisodes > 0 && record.episode % config_.logEveryEpisodes == 0) {
    logInfo() << "episode " << record.episode << ": steps=" << record.steps
              << " avgMaxQ=" << record.avgMaxQ << " reward=" << record.totalReward
              << " score=" << record.finalScore << " eps=" << record.epsilon;
  }
}

const MetricsLog& Trainer::run() { return collect(config_.episodes); }

const MetricsLog& Trainer::collect(std::size_t episodes) {
  const std::size_t v = venv_->size();
  const std::size_t dim = venv_->stateDim();
  const auto actionCount = static_cast<std::uint64_t>(venv_->actionCount());
  const std::size_t targetEpisodes = metrics_.size() + episodes;

  nn::Tensor states(v, dim);
  nn::Tensor nextStates(v, dim);
  nn::Tensor q;
  std::vector<int> actions(v);
  std::vector<EnvStep> results(v);
  std::vector<EpisodeRecord> records(v);
  std::vector<RunningStats> maxQ(v);

  const auto beginEpisode = [&](std::size_t i) {
    venv_->reset(i, states.row(i));
    records[i] = EpisodeRecord{};
    records[i].finalScore = venv_->score(i);
    records[i].bestScore = records[i].finalScore;
    maxQ[i] = RunningStats{};
  };
  for (std::size_t i = 0; i < v; ++i) beginEpisode(i);

  while (metrics_.size() < targetEpisodes) {
    // One batched Q-forward for all V current states. predict() tiles
    // any row count through the same gemmABt path, bit-identical per
    // row to the scalar qValues() call.
    agent_.qValuesBatch(states, q);

    for (std::size_t i = 0; i < v; ++i) {
      // Transition-counted epsilon: env i is about to commit transition
      // number globalStep_ + i, exactly the step index a one-env run
      // would use for it.
      const double epsilon = config_.epsilon.value(globalStep_ + i);
      records[i].epsilon = epsilon;
      const auto row = q.row(i);
      const auto best = std::max_element(row.begin(), row.end());
      maxQ[i].add(*best);
      Rng& rng = actionRng(i);
      // Same draw order as DqnAgent::selectAction: one uniform() always,
      // one uniformInt() only when exploring.
      if (rng.uniform() < epsilon) {
        actions[i] = static_cast<int>(rng.uniformInt(actionCount));
      } else {
        actions[i] = static_cast<int>(best - row.begin());
      }
    }

    // Lockstep env step: the docking VectorEnv scores all V candidate
    // poses in one batched receptor sweep.
    venv_->step(actions, nextStates, results);

    // Commit the V transitions in env-index order; replay pushes, the
    // learn cadence, and target syncs all advance per transition.
    for (std::size_t i = 0; i < v; ++i) {
      records[i].totalReward += results[i].reward;
      sink_.push(states.row(i), actions[i], results[i].reward, nextStates.row(i),
                 results[i].terminal);
      const auto next = nextStates.row(i);
      std::copy(next.begin(), next.end(), states.row(i).begin());
      ++records[i].steps;
      ++globalStep_;
      if (globalStep_ >= config_.learningStart && config_.learnEvery > 0 &&
          globalStep_ % config_.learnEvery == 0) {
        agent_.learn(source_, rng_);
      }

      const double score = venv_->score(i);
      records[i].finalScore = score;
      records[i].bestScore = std::max(records[i].bestScore, score);

      if (results[i].terminal && metrics_.size() < targetEpisodes) {
        records[i].terminationCode = results[i].terminationCode;
        records[i].avgMaxQ = maxQ[i].count() ? maxQ[i].mean() : 0.0;
        records[i].episode = episodeIndex_++;
        metrics_.add(records[i]);
        if (episodeCallback_) episodeCallback_(records[i]);
        logEpisode(records[i]);
        // Start the next episode in this slot unless the quota is now
        // filled (the remaining envs of this lockstep pass still commit
        // their transitions above; the loop then exits).
        if (metrics_.size() < targetEpisodes) beginEpisode(i);
      }
    }
  }
  return metrics_;
}

}  // namespace dqndock::rl
