#include "src/nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "src/nn/gemm.hpp"

namespace dqndock::nn {

bool foldStaticEnabled() {
  const char* v = std::getenv("DQNDOCK_FOLD_STATIC");
  if (v == nullptr || *v == '\0') return true;
  const std::string s(v);
  if (s == "on" || s == "1" || s == "true") return true;
  if (s == "off" || s == "0" || s == "false") return false;
  throw std::invalid_argument("DQNDOCK_FOLD_STATIC: expected on|off, got '" + s + "'");
}

DenseLayer::DenseLayer(std::size_t inDim, std::size_t outDim)
    : weights_(outDim, inDim), bias_(1, outDim), gradW_(outDim, inDim), gradB_(1, outDim) {}

DenseLayer::DenseLayer(const DenseLayer& other)
    : weights_(other.weights_),
      bias_(other.bias_),
      gradW_(other.gradW_),
      gradB_(other.gradB_),
      version_(other.version_) {
  if (other.fold_) fold_ = std::make_unique<Fold>(other.fold_->staticPrefix, outDim());
}

DenseLayer& DenseLayer::operator=(const DenseLayer& other) {
  if (this == &other) return *this;
  weights_ = other.weights_;
  bias_ = other.bias_;
  gradW_ = other.gradW_;
  gradB_ = other.gradB_;
  version_ = other.version_ + 1;  // contents changed relative to our old cache
  if (other.fold_) {
    fold_ = std::make_unique<Fold>(other.fold_->staticPrefix, outDim());
  } else {
    fold_.reset();
  }
  return *this;
}

DenseLayer::DenseLayer(DenseLayer&& other) noexcept
    : weights_(std::move(other.weights_)),
      bias_(std::move(other.bias_)),
      gradW_(std::move(other.gradW_)),
      gradB_(std::move(other.gradB_)),
      version_(other.version_),
      fold_(std::move(other.fold_)) {}

DenseLayer& DenseLayer::operator=(DenseLayer&& other) noexcept {
  weights_ = std::move(other.weights_);
  bias_ = std::move(other.bias_);
  gradW_ = std::move(other.gradW_);
  gradB_ = std::move(other.gradB_);
  version_ = other.version_;
  fold_ = std::move(other.fold_);
  return *this;
}

void DenseLayer::initHe(Rng& rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(inDim()));
  for (double& w : weights_.flat()) w = rng.gaussian(0.0, stddev);
  bias_.fill(0.0);
}

void DenseLayer::forwardRows(const Tensor& x, Tensor& y, std::size_t lo, std::size_t hi,
                             bool relu, Tensor* reluMask) const {
  if (x.cols() != inDim()) {
    throw std::invalid_argument("DenseLayer::forwardRows: input dim mismatch");
  }
  gemmABtRows(x, weights_, y, lo, hi, GemmEpilogue{&bias_, relu, reluMask});
}

void DenseLayer::backward(const Tensor& xCache, const Tensor& dy, Tensor* dx,
                          const Tensor* dxMask) {
  if (dy.cols() != outDim()) throw std::invalid_argument("DenseLayer::backward: grad dim mismatch");
  // dW += dY^T * X ; db += column sums of dY ; dX = (dY * W) .* dxMask.
  gemmAtBAccum(dy, xCache, gradW_);
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    const double* row = dy.data() + r * dy.cols();
    for (std::size_t c = 0; c < dy.cols(); ++c) gradB_(0, c) += row[c];
  }
  if (dx != nullptr) gemmAB(dy, weights_, *dx, dxMask);
}

void DenseLayer::zeroGrad() {
  gradW_.fill(0.0);
  gradB_.fill(0.0);
}

void DenseLayer::configureStaticPrefix(std::vector<double> staticPrefix) {
  const std::size_t s = staticPrefix.size();
  if (s == 0 || s >= inDim()) {
    throw std::invalid_argument("DenseLayer::configureStaticPrefix: need 0 < S < inDim");
  }
  fold_ = std::make_unique<Fold>(std::move(staticPrefix), outDim());
  // Packed gradient: only the dynamic columns are materialised; the
  // static-column gradient is biasGrad ⊗ staticPrefix by construction.
  gradW_ = Tensor(outDim(), inDim() - s);
}

std::size_t DenseLayer::staticLen() const { return fold_ ? fold_->staticPrefix.size() : 0; }

std::span<const double> DenseLayer::staticPrefix() const {
  return fold_ ? std::span<const double>(fold_->staticPrefix) : std::span<const double>();
}

std::uint64_t DenseLayer::foldCount() const {
  return fold_ ? fold_->folds.load(std::memory_order_relaxed) : 0;
}

const Tensor& DenseLayer::foldedBias() const {
  if (!fold_) throw std::logic_error("DenseLayer::foldedBias: folding not configured");
  refold();
  return fold_->c;
}

void DenseLayer::refold() const {
  Fold& f = *fold_;
  const std::uint64_t v = version_;
  if (f.cachedVersion.load(std::memory_order_acquire) == v) return;
  std::lock_guard lock(f.rebuild);
  if (f.cachedVersion.load(std::memory_order_relaxed) == v) return;
  const std::size_t in = inDim();
  const std::size_t s = f.staticPrefix.size();
  const std::size_t d = in - s;
  const std::size_t out = outDim();
  if (!f.dotsCurrent) {
    // The one sweep over W_s, kDotRows rows per pass over x_s. Each row
    // sums in j order from 0.0, as the optimizer's fused dot does, so
    // the dots are bitwise the serial ones whichever of the two made
    // them, regardless of pool size, kernel tier or row grouping.
    std::fill(f.dots.begin(), f.dots.end(), 0.0);
    for (std::size_t r = 0; r < out; r += kDotRows) {
      accumulateRowDots(weights_.data() + r * in, std::min(kDotRows, out - r), in,
                        f.staticPrefix.data(), s, f.dots.data() + r);
    }
    f.dotsCurrent = true;
    f.folds.fetch_add(1, std::memory_order_relaxed);
  }
  f.c.resizeOverwrite(1, out);
  for (std::size_t r = 0; r < out; ++r) f.c(0, r) = f.dots[r] + bias_(0, r);
  f.wd.resizeOverwrite(out, d);
  for (std::size_t r = 0; r < out; ++r) {
    std::memcpy(f.wd.data() + r * d, weights_.data() + r * in + s, d * sizeof(double));
  }
  f.cachedVersion.store(v, std::memory_order_release);
}

void DenseLayer::forwardFoldedRows(const Tensor& xd, Tensor& y, std::size_t lo, std::size_t hi,
                                   bool relu, Tensor* reluMask) const {
  if (!fold_) throw std::logic_error("DenseLayer::forwardFoldedRows: folding not configured");
  if (xd.cols() != dynamicDim()) {
    throw std::invalid_argument("DenseLayer::forwardFoldedRows: input dim != dynamicDim");
  }
  gemmABtRows(xd, fold_->wd, y, lo, hi, GemmEpilogue{&fold_->c, relu, reluMask});
}

FactoredPrefixGrad DenseLayer::factoredGrad(std::size_t paramIndex, ThreadPool* pool) const {
  if (!fold_) throw std::logic_error("DenseLayer::factoredGrad: folding not configured");
  FactoredPrefixGrad fg;
  fg.paramIndex = paramIndex;
  fg.staticPrefix = fold_->staticPrefix;
  fg.coeff = &gradB_;
  fg.pool = pool;
  fg.rowDots = fold_->dots;
  fg.rowDotsCurrent = &fold_->dotsCurrent;
  fg.rowDotsMatch = fold_->dotsCurrent;
  return fg;
}

void DenseLayer::backwardFolded(const Tensor& xdCache, const Tensor& dy) {
  if (!fold_) throw std::logic_error("DenseLayer::backwardFolded: folding not configured");
  if (dy.cols() != outDim()) {
    throw std::invalid_argument("DenseLayer::backwardFolded: grad dim mismatch");
  }
  // Packed dW_d += dY^T * Xd ; db += column sums of dY (db doubles as
  // the rank-1 static-column coefficient: dW_s = db ⊗ x_s).
  gemmAtBAccum(dy, xdCache, gradW_);
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    const double* row = dy.data() + r * dy.cols();
    for (std::size_t c = 0; c < dy.cols(); ++c) gradB_(0, c) += row[c];
  }
}

Mlp::Mlp(std::vector<std::size_t> dims, Rng& rng, ThreadPool* pool)
    : dims_(std::move(dims)), pool_(pool) {
  if (dims_.size() < 2) throw std::invalid_argument("Mlp: need at least input and output dims");
  for (std::size_t d : dims_) {
    if (d == 0) throw std::invalid_argument("Mlp: zero-sized layer");
  }
  layers_.reserve(dims_.size() - 1);
  for (std::size_t i = 0; i + 1 < dims_.size(); ++i) {
    layers_.emplace_back(dims_[i], dims_[i + 1]);
    layers_.back().initHe(rng);
  }
  inputs_.resize(layers_.size());
  reluMasks_.resize(layers_.size() - 1);
}

std::size_t Mlp::parameterCount() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer.weights().size() + layer.bias().size();
  return n;
}

bool Mlp::configureStaticPrefix(std::span<const double> staticPrefix) {
  if (staticPrefix.empty() || staticPrefix.size() >= inputDim()) return false;
  layers_.front().configureStaticPrefix(
      std::vector<double>(staticPrefix.begin(), staticPrefix.end()));
  return true;
}

std::optional<FactoredPrefixGrad> Mlp::factoredGrad() const {
  if (!foldActive()) return std::nullopt;
  return layers_.front().factoredGrad(0, pool_);  // parameters() order: W0, b0, W1, b1, ...
}

namespace {
/// Rows per group of a split forward: the height of gemmABt's AVX-512
/// register tile, so no group leaves a tile half full.
constexpr std::size_t kRowsPerGroup = 4;

/// Min multiply-adds per participant before a forward splits its rows:
/// about 30 us of GEMM, against the 10-20 us a hand-off and wake-up of
/// a pool worker cost. Measured at batch 32 on a 4-CPU AVX-512 host
/// with a 4-thread pool, median of 2,000 forwards per part count, split
/// and serial interleaved: the scaled preset's net (229 k MACs) ran
/// 31 us serial and 37-49 us or 23-31 us split 2-5 ways, run to run; a
/// 128-128-128-12 net (1.1 M MACs) 100-107 us serial and 46-67 us split
/// 3-5 ways; the folded Table 1 net (1.79 M MACs) 184-219 us serial and
/// 73-75 us split 5 ways. So the folded Table 1 forward spreads over
/// every thread of a 4-thread pool and the scaled preset's stays serial.
constexpr std::size_t kMinMacsPerPart = 256u * 1024u;

/// Copy the dynamic suffix (columns [s, s+d)) of a full-width input into
/// a packed (rows x d) tensor.
void packDynamicSuffix(const Tensor& x, std::size_t s, std::size_t d, Tensor& xd) {
  xd.resizeOverwrite(x.rows(), d);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    std::copy(x.data() + r * x.cols() + s, x.data() + (r + 1) * x.cols(), xd.data() + r * d);
  }
}
}  // namespace

std::size_t Mlp::rowParts(std::size_t rows) const {
  if (pool_ == nullptr) return 1;
  std::size_t macsPerRow = 0;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    macsPerRow += (i == 0 ? dynamicInputDim() : layers_[i].inDim()) * layers_[i].outDim();
  }
  const std::size_t groups = (rows + kRowsPerGroup - 1) / kRowsPerGroup;
  return std::max<std::size_t>(
      1, std::min({groups, pool_->threadCount() + 1, rows * macsPerRow / kMinMacsPerPart}));
}

void Mlp::run(const Tensor& x, std::span<Tensor> acts, std::span<Tensor> masks,
              Tensor& y) const {
  // Everything shared happens here, on the caller, before any fan-out:
  // the width check, the sizing of every output and the refold (it takes
  // a mutex). A row group then only reads its rows of the layer inputs
  // and writes its rows of the layer outputs.
  const bool folded = foldActive();
  if (x.cols() != (folded ? dynamicInputDim() : inputDim())) {
    throw std::invalid_argument("Mlp: input dim mismatch");
  }
  const std::size_t rows = x.rows();
  const std::size_t last = layers_.size() - 1;
  for (std::size_t i = 0; i < last; ++i) {
    acts[i].resizeOverwrite(rows, layers_[i].outDim());
    if (!masks.empty()) masks[i].resizeOverwrite(rows, layers_[i].outDim());
  }
  y.resizeOverwrite(rows, outputDim());
  if (folded) layers_.front().foldedBias();  // refolds if the weights moved
  // Hidden layers fuse bias + ReLU (+ mask capture) into the GEMM sweep.
  auto through = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = 0; i <= last; ++i) {
      const Tensor& in = i == 0 ? x : acts[i - 1];
      const bool hidden = i < last;
      Tensor& out = hidden ? acts[i] : y;
      Tensor* mask = hidden && !masks.empty() ? &masks[i] : nullptr;
      if (i == 0 && folded) {
        layers_[0].forwardFoldedRows(in, out, lo, hi, hidden, mask);
      } else {
        layers_[i].forwardRows(in, out, lo, hi, hidden, mask);
      }
    }
  };
  const std::size_t parts = rowParts(rows);
  if (parts <= 1) {
    through(0, rows);
    return;
  }
  forEachIndex(pool_, (rows + kRowsPerGroup - 1) / kRowsPerGroup, parts, [&](std::size_t g) {
    through(g * kRowsPerGroup, std::min(rows, (g + 1) * kRowsPerGroup));
  });
}

const Tensor& Mlp::forward(const Tensor& x) {
  if (foldActive()) {
    // Dual-width contract: full-width callers get the suffix packed out
    // here; dynamic-width callers (the folded trainer/replay paths) are
    // cached as-is. Either way inputs_[0] holds exactly the dynamic
    // columns the folded backward needs.
    const std::size_t s = staticPrefixLen();
    const std::size_t d = dynamicInputDim();
    if (x.cols() == d) {
      inputs_[0] = x;
    } else if (x.cols() == inputDim()) {
      packDynamicSuffix(x, s, d, inputs_[0]);
    } else {
      throw std::invalid_argument("Mlp::forward: input dim matches neither full nor dynamic");
    }
  } else {
    inputs_[0] = x;
  }
  // Hidden activations land directly in the next layer's cached input
  // slot: no per-call tensor allocation, no separate activation pass.
  run(inputs_[0], std::span(inputs_).subspan(1), reluMasks_, output_);
  return output_;
}

void Mlp::predict(const Tensor& x, Tensor& y) const {
  // Reentrancy: concurrent predict() calls share only the immutable
  // weights and the fold cache (whose lazy rebuild is internally
  // synchronized), so the scratch stays local: one activation tensor
  // per hidden layer (row groups of different layers run at once, so
  // layers cannot share one), a packed copy of a full-width input, and
  // the output when `y` is the input it would overwrite.
  Tensor packScratch;
  const Tensor* in = &x;
  if (foldActive() && x.cols() == inputDim()) {
    packDynamicSuffix(x, staticPrefixLen(), dynamicInputDim(), packScratch);
    in = &packScratch;
  } else if (foldActive() && x.cols() != dynamicInputDim()) {
    throw std::invalid_argument("Mlp::predict: input dim matches neither full nor dynamic");
  }
  std::vector<Tensor> acts(layers_.size() - 1);
  if (in == &y) {
    Tensor out;
    run(*in, acts, {}, out);
    y = std::move(out);
  } else {
    run(*in, acts, {}, y);
  }
}

void Mlp::backward(const Tensor& dLossDOut) {
  bwdGrad_ = dLossDOut;
  Tensor* grad = &bwdGrad_;
  Tensor* dx = &bwdDx_;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    // The ReLU gate below layer i is fused into the dX GEMM; grad/dx
    // ping-pong between two member buffers reused across calls. The
    // input layer (i == 0) produces no dX: nothing consumes dL/dInput.
    if (i == 0 && foldActive()) {
      layers_[0].backwardFolded(inputs_[0], *grad);
    } else {
      layers_[i].backward(inputs_[i], *grad, i > 0 ? dx : nullptr,
                          i > 0 ? &reluMasks_[i - 1] : nullptr);
    }
    std::swap(grad, dx);
  }
}

void Mlp::zeroGrad() {
  for (auto& layer : layers_) layer.zeroGrad();
}

std::vector<Tensor*> Mlp::parameters() {
  std::vector<Tensor*> out;
  out.reserve(layers_.size() * 2);
  for (auto& layer : layers_) {
    out.push_back(&layer.weights());
    out.push_back(&layer.bias());
  }
  return out;
}

std::vector<const Tensor*> Mlp::parameters() const {
  std::vector<const Tensor*> out;
  out.reserve(layers_.size() * 2);
  for (const auto& layer : layers_) {
    out.push_back(&layer.weights());
    out.push_back(&layer.bias());
  }
  return out;
}

std::vector<Tensor*> Mlp::gradients() {
  std::vector<Tensor*> out;
  out.reserve(layers_.size() * 2);
  for (auto& layer : layers_) {
    out.push_back(&layer.weightGrad());
    out.push_back(&layer.biasGrad());
  }
  return out;
}

void Mlp::copyWeightsFrom(const Mlp& other) {
  if (other.layers_.size() != layers_.size()) {
    throw std::invalid_argument("Mlp::copyWeightsFrom: layer count mismatch");
  }
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (!layers_[i].weights().sameShape(other.layers_[i].weights())) {
      throw std::invalid_argument("Mlp::copyWeightsFrom: shape mismatch");
    }
    layers_[i].weights() = other.layers_[i].weights();
    layers_[i].bias() = other.layers_[i].bias();
  }
}

}  // namespace dqndock::nn
