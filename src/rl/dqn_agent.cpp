#include "src/rl/dqn_agent.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/rl/prioritized_replay.hpp"

namespace dqndock::rl {

const char* dqnVariantName(DqnVariant v) {
  switch (v) {
    case DqnVariant::kVanilla: return "dqn";
    case DqnVariant::kDouble: return "double-dqn";
  }
  return "?";
}

DqnAgent::DqnAgent(std::size_t stateDim, int actionCount, DqnConfig config, Rng& rng,
                   ThreadPool* pool)
    : config_(std::move(config)) {
  if (actionCount <= 0) throw std::invalid_argument("DqnAgent: actionCount must be > 0");
  if (config_.dueling) {
    online_ = std::make_unique<DuelingQNetwork>(stateDim, config_.hiddenSizes, actionCount, rng,
                                                pool);
  } else {
    online_ = std::make_unique<MlpQNetwork>(stateDim, config_.hiddenSizes, actionCount, rng, pool);
  }
  target_ = online_->clone();
  optimizer_ = nn::makeOptimizer(config_.optimizer, config_.learningRate);
}

int DqnAgent::selectAction(std::span<const double> state, double epsilon, Rng& rng) const {
  if (rng.uniform() < epsilon) {
    return static_cast<int>(rng.uniformInt(static_cast<std::uint64_t>(actionCount())));
  }
  return greedyAction(state);
}

bool DqnAgent::enableStaticPrefixFold(std::span<const double> staticPrefix) {
  if (!online_->configureStaticPrefix(staticPrefix)) return false;
  if (!target_->configureStaticPrefix(staticPrefix)) {
    throw std::logic_error("DqnAgent: target net rejected fold the online net accepted");
  }
  return true;
}

std::vector<double> DqnAgent::qValues(std::span<const double> state) const {
  if (state.size() != stateDim() &&
      !(online_->foldActive() && state.size() == online_->dynamicInputDim())) {
    throw std::invalid_argument("DqnAgent: state dim mismatch");
  }
  // Local buffers: inference must be callable concurrently from parallel
  // experience collectors (predict() itself touches no shared caches).
  nn::Tensor in(1, state.size());
  std::copy(state.begin(), state.end(), in.data());
  nn::Tensor out;
  online_->predict(in, out);
  return std::vector<double>(out.data(), out.data() + out.cols());
}

void DqnAgent::qValuesBatch(const nn::Tensor& states, nn::Tensor& q) const {
  if (states.cols() != stateDim() &&
      !(online_->foldActive() && states.cols() == online_->dynamicInputDim())) {
    throw std::invalid_argument("DqnAgent::qValuesBatch: state dim mismatch");
  }
  online_->predict(states, q);
}

int DqnAgent::greedyAction(std::span<const double> state) const {
  const auto q = qValues(state);
  return static_cast<int>(std::max_element(q.begin(), q.end()) - q.begin());
}

double DqnAgent::maxQ(std::span<const double> state) const {
  const auto q = qValues(state);
  return *std::max_element(q.begin(), q.end());
}

int DqnAgent::selectActionSoftmax(std::span<const double> state, double temperature,
                                  Rng& rng) const {
  if (temperature <= 0.0) return greedyAction(state);
  const auto q = qValues(state);
  const double maxQ = *std::max_element(q.begin(), q.end());
  std::vector<double> weights(q.size());
  double total = 0.0;
  for (std::size_t a = 0; a < q.size(); ++a) {
    weights[a] = std::exp((q[a] - maxQ) / temperature);
    total += weights[a];
  }
  double mass = rng.uniform() * total;
  for (std::size_t a = 0; a < q.size(); ++a) {
    mass -= weights[a];
    if (mass <= 0.0) return static_cast<int>(a);
  }
  return static_cast<int>(q.size()) - 1;
}

void DqnAgent::syncTarget() { target_->copyWeightsFrom(*online_); }

namespace {
void polyakUpdate(QNetwork& target, const QNetwork& online, double tau) {
  const auto dst = target.parameters();
  const auto src = online.parameters();
  for (std::size_t i = 0; i < dst.size(); ++i) {
    auto d = dst[i]->flat();
    auto s = src[i]->flat();
    for (std::size_t j = 0; j < d.size(); ++j) d[j] = (1.0 - tau) * d[j] + tau * s[j];
  }
}
}  // namespace

double DqnAgent::learn(ExperienceSource& source, Rng& rng) {
  if (source.size() < config_.batchSize) return 0.0;
  auto* prioritized = dynamic_cast<PrioritizedSource*>(&source);
  // Scratch reuse: the minibatch tensors, target-Q buffers and dQ are
  // members filled in place each call — at paper dims the per-call
  // alloc+zero+copy this replaces was ~9 MB of pure overhead.
  source.sampleInto(mbScratch_, config_.batchSize, rng);
  const Minibatch& mb = mbScratch_;
  const std::size_t batch = mb.size();
  // n-step transitions bootstrap with gamma^n.
  const double bootstrapGamma = std::pow(config_.gamma, std::max(1, config_.nStep));

  // Q-learning targets from the frozen network (Algorithm 2):
  //   y = r                        for terminal s'
  //   y = r + gamma * max_a' Qhat  otherwise (vanilla)
  //   y = r + gamma * Qhat(s', argmax_a' Q_online(s', a'))  (double DQN)
  target_->predict(mb.nextStates, nextQTarget_);
  if (config_.variant == DqnVariant::kDouble) {
    online_->predict(mb.nextStates, nextQOnline_);
  }
  targets_.resize(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    double bootstrap = 0.0;
    if (!mb.terminals[b]) {
      if (config_.variant == DqnVariant::kDouble) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < nextQOnline_.cols(); ++c) {
          if (nextQOnline_(b, c) > nextQOnline_(b, best)) best = c;
        }
        bootstrap = nextQTarget_(b, best);
      } else {
        bootstrap = nextQTarget_(b, 0);
        for (std::size_t c = 1; c < nextQTarget_.cols(); ++c) {
          bootstrap = std::max(bootstrap, nextQTarget_(b, c));
        }
      }
    }
    targets_[b] = mb.rewards[b] + bootstrapGamma * bootstrap;
  }

  // Forward online network and build dL/dQ: squared error on the taken
  // action only, averaged over the batch. dq_ needs the zero-fill
  // resize: only the taken-action entries are written.
  const nn::Tensor& q = online_->forward(mb.states);
  dq_.resize(batch, static_cast<std::size_t>(actionCount()));
  double loss = 0.0;
  const double invBatch = 1.0 / static_cast<double>(batch);
  tdErrors_.resize(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const auto a = static_cast<std::size_t>(mb.actions[b]);
    double err = q(b, a) - targets_[b];
    tdErrors_[b] = err;
    const double weight =
        prioritized ? prioritized->lastImportanceWeights()[b] : 1.0;
    loss += 0.5 * err * err * weight * invBatch;
    if (config_.clipTdError) err = std::clamp(err, -1.0, 1.0);
    dq_(b, a) = err * weight * invBatch;
  }
  if (prioritized) prioritized->updatePriorities(tdErrors_);

  online_->zeroGrad();
  online_->backward(dq_);
  // Before parameters(): the descriptor records whether the fold's row
  // dots are current, and the walk marks them stale.
  const nn::FactoredPrefixGrad* factored = online_->factoredGrad();
  optimizer_->step(online_->parameters(), online_->gradients(), factored);

  ++learnSteps_;
  if (config_.polyakTau > 0.0) {
    polyakUpdate(*target_, *online_, config_.polyakTau);
  } else if (config_.targetSyncInterval > 0 && learnSteps_ % config_.targetSyncInterval == 0) {
    syncTarget();
  }
  return loss;
}

}  // namespace dqndock::rl
