#include "src/nn/optimizer.hpp"

#include <algorithm>
#include <atomic>
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
      if (!factored->rowDots.empty() && factored->rowDots.size() != params[i]->rows()) {
        throw std::invalid_argument("Optimizer::step: factored rowDots size != rows");
      }
      continue;
    }
    if (!params[i]->sameShape(*grads[i])) {
      throw std::invalid_argument("Optimizer::step: param/grad shape mismatch");
    }
  }
}

/// Min elements per participant before the factored sweep fans out. A
/// participant then carries tens of microseconds of sqrt/div work, well
/// above the pool's submit and wake-up cost: Table 1's 135 x 16,599 input
/// layer spreads over every pool thread, while small nets stay serial.
constexpr std::size_t kMinElemsPerPart = 16u * 1024u;

/// Static columns per block of the fused dot: a group's 8 x 256 freshly
/// written weights (16 KiB) are still in L1 when the dot reads them.
constexpr std::size_t kDotBlock = 256;

template <std::size_t N>
void addRowDots(const double* w, std::size_t stride, const double* xs, std::size_t n,
                double* dots) {
  double acc[N];
  for (std::size_t k = 0; k < N; ++k) acc[k] = dots[k];
  for (std::size_t j = 0; j < n; ++j) {
    const double x = xs[j];
#pragma GCC unroll 8
    for (std::size_t k = 0; k < N; ++k) acc[k] += w[k * stride + j] * x;
  }
  for (std::size_t k = 0; k < N; ++k) dots[k] = acc[k];
}

/// Drive the per-element update `f(flatIdx, g)` over a factored parameter:
/// the leading S columns of each row get the rank-1 reconstruction
/// g = coeff[r] * staticPrefix[c]; the trailing d columns read the packed
/// gradient tensor. flatIdx indexes the full (out x in) parameter/state.
/// Rows go in groups of kDotRows, pulled from one counter by the caller
/// and fp.pool's workers; f must touch only element flatIdx of its
/// tensors, which makes the result bitwise independent of the schedule.
/// With fp.rowDots set, each group sums its rows' static dots block by
/// block from the weights f has just written, in ascending j.
template <class F>
void forEachFactoredElem(const Tensor& param, const Tensor& packedGrad,
                         const FactoredPrefixGrad& fp, F&& f) {
  const std::size_t rows = param.rows();
  const std::size_t full = param.cols();
  const std::size_t s = fp.staticPrefix.size();
  const std::size_t d = full - s;
  const double* xs = fp.staticPrefix.data();
  double* dots = fp.rowDots.empty() ? nullptr : fp.rowDots.data();
  auto sweepGroup = [&](std::size_t lo, std::size_t hi) {
    if (dots != nullptr) std::fill(dots + lo, dots + hi, 0.0);
    for (std::size_t j0 = 0; j0 < s; j0 += kDotBlock) {
      const std::size_t j1 = std::min(s, j0 + kDotBlock);
      for (std::size_t r = lo; r < hi; ++r) {
        const double cr = (*fp.coeff)(0, r);
        const std::size_t base = r * full;
        for (std::size_t j = j0; j < j1; ++j) f(base + j, cr * xs[j]);
      }
      if (dots != nullptr) {
        accumulateRowDots(param.data() + lo * full + j0, hi - lo, full, xs + j0, j1 - j0,
                          dots + lo);
      }
    }
    for (std::size_t r = lo; r < hi; ++r) {
      const double* gd = packedGrad.data() + r * d;
      const std::size_t base = r * full + s;
      for (std::size_t j = 0; j < d; ++j) f(base + j, gd[j]);
    }
  };
  const std::size_t groups = (rows + kDotRows - 1) / kDotRows;
  std::atomic<std::size_t> next{0};
  auto participate = [&] {
    for (std::size_t g; (g = next.fetch_add(1)) < groups;) {
      sweepGroup(g * kDotRows, std::min(rows, (g + 1) * kDotRows));
    }
  };
  const std::size_t maxParts = rows * full / kMinElemsPerPart;
  if (fp.pool != nullptr && maxParts > 1) {
    const std::size_t parts = std::min(maxParts, fp.pool->threadCount() + 1);
    fp.pool->parallelFor(0, parts, parts, [&](std::size_t, std::size_t) { participate(); });
  } else {
    participate();
  }
  if (dots != nullptr && fp.rowDotsCurrent != nullptr) *fp.rowDotsCurrent = true;
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

void accumulateRowDots(const double* w, std::size_t rows, std::size_t stride, const double* xs,
                       std::size_t n, double* dots) {
  using Kernel = void (*)(const double*, std::size_t, const double*, std::size_t, double*);
  static constexpr Kernel kByRows[kDotRows] = {addRowDots<1>, addRowDots<2>, addRowDots<3>,
                                               addRowDots<4>, addRowDots<5>, addRowDots<6>,
                                               addRowDots<7>, addRowDots<8>};
  if (rows == 0 || rows > kDotRows) {
    throw std::invalid_argument("accumulateRowDots: rows must be 1..kDotRows");
  }
  kByRows[rows - 1](w, stride, xs, n, dots);
}

std::unique_ptr<Optimizer> makeOptimizer(const std::string& name, double lr) {
  if (name == "sgd") return std::make_unique<Sgd>(lr);
  if (name == "rmsprop") return std::make_unique<RmsProp>(lr);
  if (name == "adam") return std::make_unique<Adam>(lr);
  throw std::invalid_argument("makeOptimizer: unknown optimizer '" + name + "'");
}

}  // namespace dqndock::nn
