#include "src/nn/optimizer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace dqndock::nn {

namespace {
/// Size the per-parameter state on first use; true when it was rebuilt.
bool ensureState(std::vector<Tensor>& state, const std::vector<Tensor*>& params) {
  if (state.size() == params.size()) return false;
  state.clear();
  state.reserve(params.size());
  for (const Tensor* p : params) state.emplace_back(p->rows(), p->cols());
  return true;
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

/// *dots[k] += Σ_{j<n} w[k][j]·xs[j] for k < N, one accumulator per row.
template <std::size_t N>
void addRowDots(const double* const* w, const double* xs, std::size_t n, double* const* dots) {
  double acc[N];
  for (std::size_t k = 0; k < N; ++k) acc[k] = *dots[k];
  for (std::size_t j = 0; j < n; ++j) {
    const double x = xs[j];
#pragma GCC unroll 8
    for (std::size_t k = 0; k < N; ++k) acc[k] += w[k][j] * x;
  }
  for (std::size_t k = 0; k < N; ++k) *dots[k] = acc[k];
}

/// accumulateRowDots over `rows` rows given by pointer (1..kDotRows).
void addRowDotsOf(const double* const* w, std::size_t rows, const double* xs, std::size_t n,
                  double* const* dots) {
  using Kernel = void (*)(const double* const*, const double*, std::size_t, double* const*);
  static constexpr Kernel kByRows[kDotRows] = {addRowDots<1>, addRowDots<2>, addRowDots<3>,
                                               addRowDots<4>, addRowDots<5>, addRowDots<6>,
                                               addRowDots<7>, addRowDots<8>};
  kByRows[rows - 1](w, xs, n, dots);
}

/// Mean squares a catch-up keeps in registers at once: four zmm or
/// eight ymm registers, enough independent products to hide the
/// multiply's latency.
constexpr std::size_t kSettleLanes = 32;

/// v[i] = decay·v[i], up to `owed` times, stopping after the first pass
/// that leaves every lane's bits as they were: once decay·x rounds to x,
/// every later pass is the identity too. +0 lanes never change, so they
/// may pad a block. The bitwise test is also what lets the pass vectorise.
void settleLanes(double* v, std::uint64_t owed, double decay) {
  double x[kSettleLanes];
  std::copy(v, v + kSettleLanes, x);
  for (std::uint64_t t = 0; t < owed; ++t) {
    std::uint64_t moved = 0;
    for (std::size_t i = 0; i < kSettleLanes; ++i) {
      const double next = decay * x[i];
      moved |= std::bit_cast<std::uint64_t>(next) ^ std::bit_cast<std::uint64_t>(x[i]);
      x[i] = next;
    }
    if (moved == 0) break;
  }
  std::copy(x, x + kSettleLanes, v);
}

/// Apply `owed` pending RMSprop decays (ms = decay·ms, the rounded
/// product each skipped step would have made) to ms[0, n).
void settleDecays(double* ms, std::size_t n, std::uint64_t owed, double decay) {
  std::size_t i = 0;
  for (; i + kSettleLanes <= n; i += kSettleLanes) settleLanes(ms + i, owed, decay);
  if (i < n) {
    double tail[kSettleLanes] = {};
    std::copy(ms + i, ms + n, tail);
    settleLanes(tail, owed, decay);
    std::copy(tail, tail + (n - i), ms + i);
  }
}

/// Whether every x is finite: x − x is +0 for a finite x and NaN for ±inf
/// and NaN, and an OR over the bits vectorises where an early exit does not.
bool allFinite(std::span<const double> xs) {
  std::uint64_t bits = 0;
  for (const double x : xs) bits |= std::bit_cast<std::uint64_t>(x - x);
  return bits == 0;
}

/// RmsProp's idle-row skip for one factored step: the pending-decay
/// count of each row, and the parameter's full (rows x cols) mean squares.
struct IdleRows {
  std::uint64_t* owed;
  double* ms;
  double decay;
};

/// Drive the per-element update `f(flatIdx, g)` over a factored parameter:
/// the leading S columns of each row get the rank-1 reconstruction
/// g = coeff[r] * staticPrefix[c]; the trailing d columns read the packed
/// gradient tensor. flatIdx indexes the full (out x in) parameter/state.
/// Rows go in groups of kDotRows, pulled from one counter by the caller
/// and fp.pool's workers; f must touch only element flatIdx of its
/// tensors, which makes the result bitwise independent of the schedule.
/// With fp.rowDots set, each group sums its rows' static dots block by
/// block from the weights f has just written, in ascending j.
///
/// With `idle` set, a row whose gradient is all ±0 is skipped and owes
/// one more decay; a row that owes decays settles each block of its
/// mean squares just before f updates it. Only the participant that owns
/// a row's group touches its count, as with its dot.
template <class F>
void forEachFactoredElem(const Tensor& param, const Tensor& packedGrad,
                         const FactoredPrefixGrad& fp, F&& f, const IdleRows* idle = nullptr) {
  const std::size_t rows = param.rows();
  const std::size_t full = param.cols();
  const std::size_t s = fp.staticPrefix.size();
  const std::size_t d = full - s;
  const double* xs = fp.staticPrefix.data();
  double* dots = fp.rowDots.empty() ? nullptr : fp.rowDots.data();
  auto zeroGradient = [&](std::size_t r) {
    const double* gd = packedGrad.data() + r * d;
    return (*fp.coeff)(0, r) == 0.0 &&
           std::all_of(gd, gd + d, [](double g) { return g == 0.0; });
  };
  auto settle = [&](std::size_t r, std::size_t begin, std::size_t n) {
    if (idle != nullptr && idle->owed[r] != 0) {
      settleDecays(idle->ms + r * full + begin, n, idle->owed[r], idle->decay);
    }
  };
  auto sweepGroup = [&](std::size_t lo, std::size_t hi) {
    // The rows this group updates, and the rows whose dots it sums: the
    // updated ones, plus skipped ones whose dot is not already current.
    std::size_t live[kDotRows];
    std::size_t nLive = 0;
    const double* sumRow[kDotRows];
    double* sumDot[kDotRows];
    std::size_t nSum = 0;
    for (std::size_t r = lo; r < hi; ++r) {
      const bool skip = idle != nullptr && zeroGradient(r);
      if (skip) {
        ++idle->owed[r];
      } else {
        live[nLive++] = r;
      }
      if (dots != nullptr && (!skip || !fp.rowDotsMatch)) {
        sumRow[nSum] = param.data() + r * full;
        sumDot[nSum++] = dots + r;
        dots[r] = 0.0;
      }
    }
    const double* sumBlock[kDotRows];
    for (std::size_t j0 = 0; j0 < s; j0 += kDotBlock) {
      const std::size_t j1 = std::min(s, j0 + kDotBlock);
      for (std::size_t k = 0; k < nLive; ++k) {
        const std::size_t r = live[k];
        const double cr = (*fp.coeff)(0, r);
        const std::size_t base = r * full;
        settle(r, j0, j1 - j0);
        for (std::size_t j = j0; j < j1; ++j) f(base + j, cr * xs[j]);
      }
      if (nSum != 0) {
        for (std::size_t k = 0; k < nSum; ++k) sumBlock[k] = sumRow[k] + j0;
        addRowDotsOf(sumBlock, nSum, xs + j0, j1 - j0, sumDot);
      }
    }
    for (std::size_t k = 0; k < nLive; ++k) {
      const std::size_t r = live[k];
      const double* gd = packedGrad.data() + r * d;
      const std::size_t base = r * full + s;
      settle(r, s, d);
      for (std::size_t j = 0; j < d; ++j) f(base + j, gd[j]);
      if (idle != nullptr) idle->owed[r] = 0;
    }
  };
  forEachIndex(fp.pool, (rows + kDotRows - 1) / kDotRows, rows * full / kMinElemsPerPart,
               [&](std::size_t g) { sweepGroup(g * kDotRows, std::min(rows, (g + 1) * kDotRows)); });
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
  if (ensureState(meanSquare_, params)) owed_.clear();
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto p = params[i]->flat();
    auto ms = meanSquare_[i].flat();
    if (factored && i == factored->paramIndex) {
      if (owed_.empty() || owedParam_ != i) {
        settleOwed();
        owed_.assign(params[i]->rows(), 0);
        owedParam_ = i;
      }
      // The skip's premise: a zero gradient leaves p alone and turns ms
      // into ρ·ms. ε > 0 keeps √(ms + ε) positive, 0 < ρ ≤ 1 keeps ms
      // non-negative, and a finite lr and prefix keep lr·g and
      // coeff·x_s zeros.
      const bool exact = epsilon_ > 0.0 && decay_ > 0.0 && decay_ <= 1.0 &&
                         std::isfinite(lr_) && allFinite(factored->staticPrefix);
      if (!exact) settleOwed();
      const IdleRows idle{owed_.data(), ms.data(), decay_};
      forEachFactoredElem(
          *params[i], *grads[i], *factored,
          [&](std::size_t j, double g) {
            ms[j] = decay_ * ms[j] + (1.0 - decay_) * g * g;
            p[j] -= lr_ * g / std::sqrt(ms[j] + epsilon_);
          },
          exact ? &idle : nullptr);
      continue;
    }
    if (!owed_.empty() && i == owedParam_) settleOwed();
    auto g = grads[i]->flat();
    for (std::size_t j = 0; j < p.size(); ++j) {
      ms[j] = decay_ * ms[j] + (1.0 - decay_) * g[j] * g[j];
      p[j] -= lr_ * g[j] / std::sqrt(ms[j] + epsilon_);
    }
  }
}

void RmsProp::settleOwed() {
  if (owed_.empty()) return;
  Tensor& ms = meanSquare_[owedParam_];
  for (std::size_t r = 0; r < owed_.size(); ++r) {
    if (owed_[r] == 0) continue;
    settleDecays(ms.data() + r * ms.cols(), ms.cols(), owed_[r], decay_);
    owed_[r] = 0;
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
  if (rows == 0 || rows > kDotRows) {
    throw std::invalid_argument("accumulateRowDots: rows must be 1..kDotRows");
  }
  const double* rowW[kDotRows];
  double* rowDot[kDotRows];
  for (std::size_t k = 0; k < rows; ++k) {
    rowW[k] = w + k * stride;
    rowDot[k] = dots + k;
  }
  addRowDotsOf(rowW, rows, xs, n, rowDot);
}

std::unique_ptr<Optimizer> makeOptimizer(const std::string& name, double lr) {
  if (name == "sgd") return std::make_unique<Sgd>(lr);
  if (name == "rmsprop") return std::make_unique<RmsProp>(lr);
  if (name == "adam") return std::make_unique<Adam>(lr);
  throw std::invalid_argument("makeOptimizer: unknown optimizer '" + name + "'");
}

}  // namespace dqndock::nn
