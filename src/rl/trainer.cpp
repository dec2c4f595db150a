#include "src/rl/trainer.hpp"

#include <algorithm>
#include <span>
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

Trainer::Trainer(Environment& env, Agent& agent, ExperienceSink& sink,
                 ExperienceSource& source, TrainerConfig config)
    : ownedEnvs_(std::make_unique<LockstepVectorEnv>(std::vector<Environment*>{&env})),
      venv_(ownedEnvs_.get()), agent_(agent), sink_(sink), source_(source), config_(config),
      rng_(config.seed) {}

Trainer::Trainer(VectorEnv& envs, Agent& agent, ExperienceSink& sink,
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
/// Figure 4's max_a Q and the epsilon-greedy action from one row of
/// Q-values, in DqnAgent::selectAction's draw order: one uniform()
/// always, one uniformInt() only when exploring. The greedy arm takes
/// the first argmax, as std::max_element does in selectAction.
int pickAction(std::span<const double> q, double epsilon, Rng& rng, RunningStats& maxQ) {
  const auto best = std::max_element(q.begin(), q.end());
  maxQ.add(*best);
  if (rng.uniform() < epsilon) {
    return static_cast<int>(rng.uniformInt(static_cast<std::uint64_t>(q.size())));
  }
  return static_cast<int>(best - q.begin());
}
}  // namespace

EpisodeRecord Trainer::evaluateGreedy() {
  nn::Tensor state(1, venv_->stateDim());
  nn::Tensor q;
  venv_->reset(0, state.row(0));

  EpisodeRecord record;
  record.episode = episodeIndex_;
  record.finalScore = venv_->score(0);
  record.bestScore = record.finalScore;
  RunningStats maxQ;

  bool terminal = false;
  while (!terminal) {
    agent_.qValuesBatch(state, q);
    const int action = pickAction(q.row(0), /*epsilon=*/0.0, rng_, maxQ);
    // stepOne writes the next state over the current one, which the
    // forward above has already consumed.
    const EnvStep result = venv_->stepOne(0, action, state.row(0));
    record.totalReward += result.reward;
    record.terminationCode = result.terminationCode;
    terminal = result.terminal;
    ++record.steps;

    const double score = venv_->score(0);
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
    // One batched Q-forward for all V current states, bit-identical per
    // row to the one-row call (predict() tiles any row count through the
    // same gemmABt path).
    agent_.qValuesBatch(states, q);

    for (std::size_t i = 0; i < v; ++i) {
      // Transition-counted epsilon: env i is about to commit transition
      // number globalStep_ + i, exactly the step index a one-env run
      // would use for it.
      const double epsilon = config_.epsilon.value(globalStep_ + i);
      records[i].epsilon = epsilon;
      actions[i] = pickAction(q.row(i), epsilon, actionRng(i), maxQ[i]);
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
