#include "src/rl/c51_agent.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dqndock::rl {

namespace {
std::vector<std::size_t> netDims(std::size_t stateDim, const std::vector<std::size_t>& hidden,
                                 int actions, int atoms) {
  std::vector<std::size_t> dims;
  dims.push_back(stateDim);
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(static_cast<std::size_t>(actions) * static_cast<std::size_t>(atoms));
  return dims;
}

nn::Mlp makeNet(std::size_t stateDim, const C51Config& cfg, int actions, Rng& rng,
                ThreadPool* pool) {
  return nn::Mlp(netDims(stateDim, cfg.hiddenSizes, actions, cfg.atoms), rng, pool);
}
}  // namespace

C51Agent::C51Agent(std::size_t stateDim, int actionCount, C51Config config, Rng& rng,
                   ThreadPool* pool)
    : stateDim_(stateDim),
      actions_(actionCount),
      config_(std::move(config)),
      online_(makeNet(stateDim, config_, actionCount, rng, pool)),
      target_(makeNet(stateDim, config_, actionCount, rng, pool)) {
  if (actionCount <= 0) throw std::invalid_argument("C51Agent: actionCount must be > 0");
  if (config_.atoms < 2) throw std::invalid_argument("C51Agent: need at least 2 atoms");
  if (config_.vMax <= config_.vMin) throw std::invalid_argument("C51Agent: vMax must be > vMin");
  deltaZ_ = (config_.vMax - config_.vMin) / (config_.atoms - 1);
  support_.resize(static_cast<std::size_t>(config_.atoms));
  for (int i = 0; i < config_.atoms; ++i) support_[static_cast<std::size_t>(i)] = config_.vMin + i * deltaZ_;
  target_.copyWeightsFrom(online_);
  optimizer_ = nn::makeOptimizer(config_.optimizer, config_.learningRate);
}

void C51Agent::softmaxBlocks(const nn::Tensor& logits, nn::Tensor& probs) const {
  const std::size_t atoms = static_cast<std::size_t>(config_.atoms);
  probs.resizeOverwrite(logits.rows(), logits.cols());  // every element written
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    for (int a = 0; a < actions_; ++a) {
      const std::size_t base = static_cast<std::size_t>(a) * atoms;
      double maxLogit = logits(r, base);
      for (std::size_t i = 1; i < atoms; ++i) {
        maxLogit = std::max(maxLogit, logits(r, base + i));
      }
      double sum = 0.0;
      for (std::size_t i = 0; i < atoms; ++i) {
        const double e = std::exp(logits(r, base + i) - maxLogit);
        probs(r, base + i) = e;
        sum += e;
      }
      for (std::size_t i = 0; i < atoms; ++i) probs(r, base + i) /= sum;
    }
  }
}

bool C51Agent::enableStaticPrefixFold(std::span<const double> staticPrefix) {
  if (!online_.configureStaticPrefix(staticPrefix)) return false;
  if (!target_.configureStaticPrefix(staticPrefix)) {
    throw std::logic_error("C51Agent: target net rejected fold the online net accepted");
  }
  return true;
}

void C51Agent::checkStateDim(std::size_t cols) const {
  if (cols != stateDim_ && !(online_.foldActive() && cols == online_.dynamicInputDim())) {
    throw std::invalid_argument("C51Agent: state dim mismatch");
  }
}

void C51Agent::qValuesBatch(const nn::Tensor& states, nn::Tensor& q) const {
  checkStateDim(states.cols());
  online_.predict(states, scratchLogits_);
  softmaxBlocks(scratchLogits_, scratchProbs_);
  const std::size_t atoms = static_cast<std::size_t>(config_.atoms);
  q.resizeOverwrite(states.rows(), static_cast<std::size_t>(actions_));  // every element written
  for (std::size_t r = 0; r < states.rows(); ++r) {
    for (int a = 0; a < actions_; ++a) {
      const std::size_t base = static_cast<std::size_t>(a) * atoms;
      double mean = 0.0;
      for (std::size_t i = 0; i < atoms; ++i) mean += scratchProbs_(r, base + i) * support_[i];
      q(r, static_cast<std::size_t>(a)) = mean;
    }
  }
}

std::vector<double> C51Agent::expectedQ(std::span<const double> state) const {
  scratchState_.resize(1, state.size());
  std::copy(state.begin(), state.end(), scratchState_.data());
  nn::Tensor q;
  qValuesBatch(scratchState_, q);
  return std::vector<double>(q.data(), q.data() + q.cols());
}

std::vector<double> C51Agent::distribution(std::span<const double> state, int action) const {
  if (action < 0 || action >= actions_) throw std::out_of_range("C51Agent: bad action");
  checkStateDim(state.size());
  scratchState_.resize(1, state.size());
  std::copy(state.begin(), state.end(), scratchState_.data());
  online_.predict(scratchState_, scratchLogits_);
  softmaxBlocks(scratchLogits_, scratchProbs_);
  const std::size_t atoms = static_cast<std::size_t>(config_.atoms);
  const std::size_t base = static_cast<std::size_t>(action) * atoms;
  return std::vector<double>(scratchProbs_.data() + base, scratchProbs_.data() + base + atoms);
}

int C51Agent::greedyAction(std::span<const double> state) const {
  const auto q = expectedQ(state);
  return static_cast<int>(std::max_element(q.begin(), q.end()) - q.begin());
}

double C51Agent::maxQ(std::span<const double> state) const {
  const auto q = expectedQ(state);
  return *std::max_element(q.begin(), q.end());
}

int C51Agent::selectAction(std::span<const double> state, double epsilon, Rng& rng) const {
  if (rng.uniform() < epsilon) {
    return static_cast<int>(rng.uniformInt(static_cast<std::uint64_t>(actions_)));
  }
  return greedyAction(state);
}

double C51Agent::learn(ExperienceSource& source, Rng& rng) {
  if (source.size() < config_.batchSize) return 0.0;
  // Scratch reuse: minibatch, logits/probs and the projected target are
  // members filled in place each call.
  source.sampleInto(mbScratch_, config_.batchSize, rng);
  const Minibatch& mb = mbScratch_;
  const std::size_t batch = mb.size();
  const std::size_t atoms = static_cast<std::size_t>(config_.atoms);

  // --- Target distribution: categorical projection of r + gamma z. ------
  target_.predict(mb.nextStates, nextLogits_);
  softmaxBlocks(nextLogits_, nextProbs_);
  const nn::Tensor& nextProbs = nextProbs_;

  // Greedy next action under the target net's expected values.
  mProj_.resize(batch, atoms);  // zero base: the projection accumulates
  nn::Tensor& m = mProj_;       // projected target distribution per row
  for (std::size_t b = 0; b < batch; ++b) {
    std::size_t bestA = 0;
    double bestQ = -1e300;
    for (int a = 0; a < actions_; ++a) {
      double q = 0.0;
      for (std::size_t i = 0; i < atoms; ++i) {
        q += nextProbs(b, static_cast<std::size_t>(a) * atoms + i) * support_[i];
      }
      if (q > bestQ) {
        bestQ = q;
        bestA = static_cast<std::size_t>(a);
      }
    }
    // Project each target support point onto the fixed support.
    for (std::size_t i = 0; i < atoms; ++i) {
      const double p = mb.terminals[b] ? (i == 0 ? 1.0 : 0.0)
                                       : nextProbs(b, bestA * atoms + i);
      if (p == 0.0) continue;
      const double z = mb.terminals[b] ? 0.0 : support_[i];
      const double tz = std::clamp(mb.rewards[b] + (mb.terminals[b] ? 0.0 : config_.gamma * z),
                                   config_.vMin, config_.vMax);
      const double pos = (tz - config_.vMin) / deltaZ_;
      const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
      const std::size_t hi = std::min(lo + 1, atoms - 1);
      const double frac = pos - static_cast<double>(lo);
      m(b, lo) += p * (1.0 - frac);
      m(b, hi) += p * frac;
      if (mb.terminals[b]) break;  // the whole mass was at one pseudo-atom
    }
  }

  // --- Cross-entropy step on the online network. -------------------------
  const nn::Tensor& logits = online_.forward(mb.states);
  softmaxBlocks(logits, probs_);
  const nn::Tensor& probs = probs_;

  // Zero-fill resize: only the taken action's atom block is written.
  dLogits_.resize(batch, logits.cols());
  nn::Tensor& dLogits = dLogits_;
  double loss = 0.0;
  const double invBatch = 1.0 / static_cast<double>(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const std::size_t base = static_cast<std::size_t>(mb.actions[b]) * atoms;
    for (std::size_t i = 0; i < atoms; ++i) {
      const double p = probs(b, base + i);
      const double target = m(b, i);
      if (target > 0.0) loss -= target * std::log(std::max(p, 1e-12)) * invBatch;
      // d(-sum m log softmax)/dlogit = p - m.
      dLogits(b, base + i) = (p - target) * invBatch;
    }
  }

  online_.zeroGrad();
  online_.backward(dLogits);
  const auto factored = online_.factoredGrad();
  optimizer_->step(online_.parameters(), online_.gradients(), factored ? &*factored : nullptr);

  ++learnSteps_;
  if (config_.targetSyncInterval > 0 && learnSteps_ % config_.targetSyncInterval == 0) {
    syncTarget();
  }
  return loss;
}

}  // namespace dqndock::rl
