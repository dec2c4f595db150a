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

void DenseLayer::forward(const Tensor& x, Tensor& y, ThreadPool* pool, bool relu,
                         Tensor* reluMask) const {
  if (x.cols() != inDim()) throw std::invalid_argument("DenseLayer::forward: input dim mismatch");
  GemmEpilogue epilogue;
  epilogue.bias = &bias_;
  epilogue.relu = relu;
  epilogue.reluMask = reluMask;
  gemmABt(x, weights_, y, pool, epilogue);
}

void DenseLayer::backward(const Tensor& xCache, const Tensor& dy, Tensor* dx, ThreadPool* pool,
                          const Tensor* dxMask) {
  if (dy.cols() != outDim()) throw std::invalid_argument("DenseLayer::backward: grad dim mismatch");
  // dW += dY^T * X ; db += column sums of dY ; dX = (dY * W) .* dxMask.
  gemmAtBAccum(dy, xCache, gradW_, pool);
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    const double* row = dy.data() + r * dy.cols();
    for (std::size_t c = 0; c < dy.cols(); ++c) gradB_(0, c) += row[c];
  }
  if (dx != nullptr) gemmAB(dy, weights_, *dx, pool, dxMask);
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

void DenseLayer::forwardFolded(const Tensor& xd, Tensor& y, ThreadPool* pool, bool relu,
                               Tensor* reluMask) const {
  if (!fold_) throw std::logic_error("DenseLayer::forwardFolded: folding not configured");
  if (xd.cols() != dynamicDim()) {
    throw std::invalid_argument("DenseLayer::forwardFolded: input dim != dynamicDim");
  }
  refold();
  GemmEpilogue epilogue;
  epilogue.bias = &fold_->c;
  epilogue.relu = relu;
  epilogue.reluMask = reluMask;
  gemmABt(xd, fold_->wd, y, pool, epilogue);
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

void DenseLayer::backwardFolded(const Tensor& xdCache, const Tensor& dy, ThreadPool* pool) {
  if (!fold_) throw std::logic_error("DenseLayer::backwardFolded: folding not configured");
  if (dy.cols() != outDim()) {
    throw std::invalid_argument("DenseLayer::backwardFolded: grad dim mismatch");
  }
  // Packed dW_d += dY^T * Xd ; db += column sums of dY (db doubles as
  // the rank-1 static-column coefficient: dW_s = db ⊗ x_s).
  gemmAtBAccum(dy, xdCache, gradW_, pool);
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    const double* row = dy.data() + r * dy.cols();
    for (std::size_t c = 0; c < dy.cols(); ++c) gradB_(0, c) += row[c];
  }
}

void reluForward(Tensor& x, Tensor& mask) {
  mask.resizeOverwrite(x.rows(), x.cols());  // every element written below
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x.flat()[i] > 0.0) {
      mask.flat()[i] = 1.0;
    } else {
      x.flat()[i] = 0.0;
      mask.flat()[i] = 0.0;
    }
  }
}

void reluBackward(Tensor& grad, const Tensor& mask) {
  if (!grad.sameShape(mask)) throw std::invalid_argument("reluBackward: shape mismatch");
  for (std::size_t i = 0; i < grad.size(); ++i) grad.flat()[i] *= mask.flat()[i];
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
/// Copy the dynamic suffix (columns [s, s+d)) of a full-width input into
/// a packed (rows x d) tensor.
void packDynamicSuffix(const Tensor& x, std::size_t s, std::size_t d, Tensor& xd) {
  xd.resizeOverwrite(x.rows(), d);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    std::copy(x.data() + r * x.cols() + s, x.data() + (r + 1) * x.cols(), xd.data() + r * d);
  }
}
}  // namespace

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
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const bool hidden = i + 1 < layers_.size();
    // Hidden layers fuse bias + ReLU + mask capture into the GEMM sweep
    // and land directly in the next layer's cached input slot — no
    // per-call tensor allocation, no separate activation pass.
    Tensor& y = hidden ? inputs_[i + 1] : output_;
    if (i == 0 && foldActive()) {
      layers_[0].forwardFolded(inputs_[0], y, pool_, hidden, hidden ? &reluMasks_[0] : nullptr);
    } else {
      layers_[i].forward(inputs_[i], y, pool_, hidden, hidden ? &reluMasks_[i] : nullptr);
    }
  }
  return output_;
}

void Mlp::predict(const Tensor& x, Tensor& y) const {
  // Reentrancy: concurrent predict() calls share only the immutable
  // weights and the fold cache (whose lazy rebuild is internally
  // synchronized), so hidden-layer scratch stays on the stack (two
  // ping-pong buffers; a full-width input is packed at most once).
  const bool folded = foldActive();
  Tensor packScratch;
  const Tensor* in = &x;
  if (folded) {
    const std::size_t d = dynamicInputDim();
    if (x.cols() == inputDim()) {
      packDynamicSuffix(x, staticPrefixLen(), d, packScratch);
      in = &packScratch;
    } else if (x.cols() != d) {
      throw std::invalid_argument("Mlp::predict: input dim matches neither full nor dynamic");
    }
  }
  if (layers_.size() == 1) {
    Tensor out;  // guard against y aliasing x
    if (folded) {
      layers_.front().forwardFolded(*in, out, pool_);
    } else {
      layers_.front().forward(*in, out, pool_);
    }
    y = std::move(out);
    return;
  }
  Tensor ping, pong;
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    Tensor& out = (i % 2 == 0) ? ping : pong;
    if (i == 0 && folded) {
      layers_[0].forwardFolded(*in, out, pool_, /*relu=*/true);
    } else {
      layers_[i].forward(*in, out, pool_, /*relu=*/true);
    }
    in = &out;
  }
  layers_.back().forward(*in, y, pool_);
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
      layers_[0].backwardFolded(inputs_[0], *grad, pool_);
    } else {
      layers_[i].backward(inputs_[i], *grad, i > 0 ? dx : nullptr, pool_,
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
