#include "src/nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace dqndock::nn {

namespace {
void ensureState(std::vector<Tensor>& state, const std::vector<Tensor*>& params) {
  if (state.size() == params.size()) return;
  state.clear();
  state.reserve(params.size());
  for (const Tensor* p : params) state.emplace_back(p->rows(), p->cols());
}

void checkPairs(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads,
                const FactoredPrefixGrad* factored) {
  if (params.size() != grads.size()) {
    throw std::invalid_argument("Optimizer::step: params/grads size mismatch");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (factored && i == factored->paramIndex) {
      const std::size_t s = factored->staticPrefix.size();
      if (grads[i]->rows() != params[i]->rows() || grads[i]->cols() + s != params[i]->cols()) {
        throw std::invalid_argument("Optimizer::step: factored param/grad shape mismatch");
      }
      if (factored->coeff == nullptr || factored->coeff->rows() != 1 ||
          factored->coeff->cols() != params[i]->rows()) {
        throw std::invalid_argument("Optimizer::step: factored coeff shape mismatch");
      }
      continue;
    }
    if (!params[i]->sameShape(*grads[i])) {
      throw std::invalid_argument("Optimizer::step: param/grad shape mismatch");
    }
  }
}

/// Min elements per part before the factored sweep fans out. A part then
/// carries tens of microseconds of sqrt/div work, well above the pool's
/// submit and wake-up cost: Table 1's 135 x 16,599 input layer splits
/// across every pool thread, while small nets stay serial.
constexpr std::size_t kMinElemsPerPart = 16u * 1024u;

/// Drive the per-element update `f(flatIdx, g)` over a factored parameter:
/// the leading S columns of each row get the rank-1 reconstruction
/// g = coeff[r] * staticPrefix[c]; the trailing d columns read the packed
/// gradient tensor. flatIdx indexes the full (out x in) parameter/state.
/// Rows are handed out in contiguous ranges over fp.pool; f must touch
/// only element flatIdx of its tensors, which makes the result bitwise
/// independent of the partition.
template <class F>
void forEachFactoredElem(const Tensor& param, const Tensor& packedGrad,
                         const FactoredPrefixGrad& fp, F&& f) {
  const std::size_t rows = param.rows();
  const std::size_t full = param.cols();
  const std::size_t s = fp.staticPrefix.size();
  const std::size_t d = full - s;
  const double* xs = fp.staticPrefix.data();
  auto sweepRows = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      const double cr = (*fp.coeff)(0, r);
      const double* gd = packedGrad.data() + r * d;
      const std::size_t base = r * full;
      for (std::size_t j = 0; j < s; ++j) f(base + j, cr * xs[j]);
      for (std::size_t j = 0; j < d; ++j) f(base + s + j, gd[j]);
    }
  };
  const std::size_t maxParts = rows * full / kMinElemsPerPart;
  if (fp.pool != nullptr && maxParts > 1) {
    fp.pool->parallelFor(0, rows, maxParts, sweepRows);
  } else {
    sweepRows(0, rows);
  }
}
}  // namespace

void Sgd::step(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads,
               const FactoredPrefixGrad* factored) {
  checkPairs(params, grads, factored);
  ensureState(velocity_, params);
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto p = params[i]->flat();
    auto v = velocity_[i].flat();
    if (factored && i == factored->paramIndex) {
      forEachFactoredElem(*params[i], *grads[i], *factored, [&](std::size_t j, double g) {
        v[j] = momentum_ * v[j] - lr_ * g;
        p[j] += v[j];
      });
      continue;
    }
    auto g = grads[i]->flat();
    for (std::size_t j = 0; j < p.size(); ++j) {
      v[j] = momentum_ * v[j] - lr_ * g[j];
      p[j] += v[j];
    }
  }
}

void RmsProp::step(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads,
                   const FactoredPrefixGrad* factored) {
  checkPairs(params, grads, factored);
  ensureState(meanSquare_, params);
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto p = params[i]->flat();
    auto ms = meanSquare_[i].flat();
    if (factored && i == factored->paramIndex) {
      forEachFactoredElem(*params[i], *grads[i], *factored, [&](std::size_t j, double g) {
        ms[j] = decay_ * ms[j] + (1.0 - decay_) * g * g;
        p[j] -= lr_ * g / std::sqrt(ms[j] + epsilon_);
      });
      continue;
    }
    auto g = grads[i]->flat();
    for (std::size_t j = 0; j < p.size(); ++j) {
      ms[j] = decay_ * ms[j] + (1.0 - decay_) * g[j] * g[j];
      p[j] -= lr_ * g[j] / std::sqrt(ms[j] + epsilon_);
    }
  }
}

void Adam::step(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads,
                const FactoredPrefixGrad* factored) {
  checkPairs(params, grads, factored);
  ensureState(m_, params);
  ensureState(v_, params);
  ++t_;
  const double correction1 = 1.0 - std::pow(beta1_, t_);
  const double correction2 = 1.0 - std::pow(beta2_, t_);
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto p = params[i]->flat();
    auto m = m_[i].flat();
    auto v = v_[i].flat();
    if (factored && i == factored->paramIndex) {
      forEachFactoredElem(*params[i], *grads[i], *factored, [&](std::size_t j, double g) {
        m[j] = beta1_ * m[j] + (1.0 - beta1_) * g;
        v[j] = beta2_ * v[j] + (1.0 - beta2_) * g * g;
        const double mhat = m[j] / correction1;
        const double vhat = v[j] / correction2;
        p[j] -= lr_ * mhat / (std::sqrt(vhat) + epsilon_);
      });
      continue;
    }
    auto g = grads[i]->flat();
    for (std::size_t j = 0; j < p.size(); ++j) {
      m[j] = beta1_ * m[j] + (1.0 - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0 - beta2_) * g[j] * g[j];
      const double mhat = m[j] / correction1;
      const double vhat = v[j] / correction2;
      p[j] -= lr_ * mhat / (std::sqrt(vhat) + epsilon_);
    }
  }
}

std::unique_ptr<Optimizer> makeOptimizer(const std::string& name, double lr) {
  if (name == "sgd") return std::make_unique<Sgd>(lr);
  if (name == "rmsprop") return std::make_unique<RmsProp>(lr);
  if (name == "adam") return std::make_unique<Adam>(lr);
  throw std::invalid_argument("makeOptimizer: unknown optimizer '" + name + "'");
}

}  // namespace dqndock::nn
