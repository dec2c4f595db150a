#pragma once

/// \file mlp.hpp
/// Multilayer perceptron with ReLU hidden activations and a linear output
/// layer — the Q-network architecture of DQN-Docking (paper Table 1:
/// two hidden layers of 135 units). Implements explicit forward/backward
/// passes; optimizers consume the accumulated gradients.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/nn/optimizer.hpp"
#include "src/nn/tensor.hpp"

namespace dqndock::nn {

/// DQNDOCK_FOLD_STATIC gate for the static-prefix input-layer fold.
/// Unset / "" / "on" / "1" / "true" enable it (the default); "off" /
/// "0" / "false" disable it (the escape hatch whose code path is
/// byte-identical to the pre-fold implementation); anything else
/// throws. Read from the environment on every call — build sites query
/// it once at wiring time.
bool foldStaticEnabled();

/// Fully-connected layer: Y = X * W^T + b.
/// W is (out x in); X is (batch x in); Y is (batch x out).
///
/// Static-prefix folding (configureStaticPrefix): when the leading S
/// input columns are known to carry the same values x_s on every call,
///   h = W_s * x_s + W_d * x_d + b
/// is served as a (batch x (in-S)) GEMM against the packed dynamic
/// columns W_d plus a cached folded bias c = W_s * x_s + b. The cache is
/// keyed by a weight-version counter that every non-const weights() /
/// bias() access bumps, so optimizer steps, target syncs,
/// copyWeightsFrom, checkpoint restores and registry hot-swaps all
/// invalidate it without bespoke hooks; the refold is lazy, serialized
/// by a mutex, and published with acquire/release so concurrent const
/// forwards (parallel collectors, the serve batcher) fold exactly once
/// per weight version.
///
/// The refold keeps the row dots W_s * x_s apart from c. They stay
/// current until the non-const weights() marks them stale, so a bias()
/// write costs one add per row. An optimizer step through factoredGrad()
/// recomputes them from the rows it writes and marks them current, so
/// the refold after a step skips the W_s sweep too; foldCount() counts
/// only the refolds that sweep W_s. A row the step leaves alone (an idle
/// RmsProp row) keeps its dot if the dots were current when the
/// descriptor was built, so build it before the parameters() walk that
/// marks them stale; built after, the step sums those rows again.
class DenseLayer {
 public:
  DenseLayer(std::size_t inDim, std::size_t outDim);

  // The fold cache holds a mutex/atomic, so the compiler-generated
  // copies/moves are gone; these preserve weights, gradients and the
  // fold *configuration* while dropping the cache (it refolds lazily).
  DenseLayer(const DenseLayer& other);
  DenseLayer& operator=(const DenseLayer& other);
  DenseLayer(DenseLayer&& other) noexcept;
  DenseLayer& operator=(DenseLayer&& other) noexcept;

  /// He-normal weight init (suits the ReLU trunk), zero bias.
  void initHe(Rng& rng);

  /// Y = X*W^T + b, with the bias fused into the GEMM output sweep.
  /// When `relu`, the ReLU clamp (and optional keep-mask capture into
  /// `reluMask`) is fused too — one pass over Y instead of three.
  void forward(const Tensor& x, Tensor& y, ThreadPool* pool, bool relu = false,
               Tensor* reluMask = nullptr) const;

  /// Rows [lo, hi) of forward(), serial, into a y (and reluMask) already
  /// sized (batch x outDim()); rows outside the range are left alone.
  void forwardRows(const Tensor& x, Tensor& y, std::size_t lo, std::size_t hi,
                   bool relu = false, Tensor* reluMask = nullptr) const;

  /// Given dL/dY, accumulate dL/dW and dL/db and produce dL/dX.
  /// `xCache` must be the input of the matching forward call. When
  /// `dxMask` is given it is multiplied elementwise into dX inside the
  /// GEMM (the ReLU gate of the layer below), replacing a separate
  /// reluBackward pass. A null `dx` skips the dL/dX GEMM entirely — the
  /// input layer's callers never read it, and at paper dims that GEMM
  /// streams the full 135 x 16,599 weight matrix for nothing.
  void backward(const Tensor& xCache, const Tensor& dy, Tensor* dx, ThreadPool* pool,
                const Tensor* dxMask = nullptr);

  void zeroGrad();

  std::size_t inDim() const { return weights_.cols(); }
  std::size_t outDim() const { return weights_.rows(); }

  /// Non-const parameter access bumps the weight version: every
  /// mutation path in the codebase (optimizer steps via parameters(),
  /// polyak updates, copyWeightsFrom, checkpoint restores) reaches the
  /// tensors through these accessors, so the fold cache can never serve
  /// stale weights. weights() also marks the fold's row dots stale.
  /// Spurious bumps (read-only callers holding a non-const layer) cost
  /// a full refold; read-only walks take the const overloads
  /// (Mlp::parameters() const) instead.
  Tensor& weights() {
    ++version_;
    if (fold_) fold_->dotsCurrent = false;
    return weights_;
  }
  Tensor& bias() {
    ++version_;
    return bias_;
  }
  const Tensor& weights() const { return weights_; }
  const Tensor& bias() const { return bias_; }
  const Tensor& weightGrad() const { return gradW_; }
  const Tensor& biasGrad() const { return gradB_; }
  Tensor& weightGrad() { return gradW_; }
  Tensor& biasGrad() { return gradB_; }

  /// Monotone counter identifying the current weight/bias contents.
  std::uint64_t weightVersion() const { return version_; }

  // --- Static-prefix folding -------------------------------------------

  /// Declare the leading staticPrefix.size() input columns constant with
  /// these values. Resizes the weight-gradient tensor to the packed
  /// (out x dynamicDim) shape: the static-column gradient is the rank-1
  /// outer product biasGrad ⊗ staticPrefix, reconstructed on the fly by
  /// the optimizer (FactoredPrefixGrad) instead of materialised.
  /// Throws unless 0 < S < inDim().
  void configureStaticPrefix(std::vector<double> staticPrefix);

  bool foldActive() const { return fold_ != nullptr; }
  std::size_t staticLen() const;
  std::size_t dynamicDim() const { return inDim() - staticLen(); }
  std::span<const double> staticPrefix() const;
  /// Number of refolds that swept W_s so far (test/bench observability:
  /// "folds once per weight version"). Refolds served from current row
  /// dots — after a bias() write or a factored optimizer step — are not
  /// counted.
  std::uint64_t foldCount() const;
  /// The folded bias c = W_s * x_s + b for the current weights (refolds
  /// first when stale). Valid until the next refold.
  const Tensor& foldedBias() const;

  /// Rows [lo, hi) of Y = Xd * Wd^T + c, Xd being the (batch x
  /// dynamicDim) dynamic suffix, serial, into a y (and reluMask) already
  /// sized (batch x outDim()). Same fused epilogue as forward(); ≤1e-12
  /// rel of the unfolded result (the static partial sums are
  /// pre-accumulated) and bit-deterministic across row ranges, thread
  /// counts and runs per kernel tier. It reads the fold cache as it
  /// stands and never refolds: the refold takes a mutex, so the caller
  /// brings the cache current first (foldedBias()), once, before it
  /// hands row ranges to other threads.
  void forwardFoldedRows(const Tensor& xd, Tensor& y, std::size_t lo, std::size_t hi,
                         bool relu = false, Tensor* reluMask = nullptr) const;

  /// Descriptor of this layer's rank-1 weight gradient for an optimizer
  /// step whose parameter list holds the weights at `paramIndex`: the
  /// static prefix, the bias gradient as coefficient, `pool`, the fold's
  /// row dots as the fused-dot output, and whether they are current now
  /// (see FactoredPrefixGrad). Points into this layer: rebuild it after
  /// the layer is copied or moved. Throws unless folding is configured.
  FactoredPrefixGrad factoredGrad(std::size_t paramIndex, ThreadPool* pool) const;

  /// Folded input-layer backward: accumulates the packed dynamic-column
  /// weight gradient and the bias gradient (which doubles as the
  /// rank-1 coefficient for the static columns). Never produces dX —
  /// nothing consumes dL/dState.
  void backwardFolded(const Tensor& xdCache, const Tensor& dy, ThreadPool* pool);

 private:
  struct Fold {
    Fold(std::vector<double> prefix, std::size_t out)
        : staticPrefix(std::move(prefix)), dots(out) {}
    std::vector<double> staticPrefix;  ///< the S constant input values
    Tensor wd;                         ///< out x dynamicDim packed dynamic columns
    Tensor c;                          ///< 1 x out folded bias W_s*x_s + b
    /// W_s*x_s per row, valid while dotsCurrent. Written by a full
    /// refold or by an optimizer step's fused dot; weights() and a new
    /// Fold mark it stale.
    std::vector<double> dots;
    bool dotsCurrent = false;
    mutable std::mutex rebuild;
    std::atomic<std::uint64_t> cachedVersion{0};  ///< 0 = never folded
    std::atomic<std::uint64_t> folds{0};
  };

  /// Bring the fold cache up to weightVersion() (lazy, thread-safe):
  /// c = dots + b and W_d from the current weights, sweeping W_s for
  /// the dots only when they are stale. Runs on the calling thread: it
  /// holds Fold::rebuild, and a parallelFor waiting in here could pick
  /// up a queued task that refolds this same layer and blocks on that
  /// mutex.
  void refold() const;

  Tensor weights_;  // out x in
  Tensor bias_;     // 1 x out
  Tensor gradW_;    // out x in; out x dynamicDim when folding is active
  Tensor gradB_;
  std::uint64_t version_ = 1;
  std::unique_ptr<Fold> fold_;
};

/// In-place ReLU with mask capture for the backward pass.
void reluForward(Tensor& x, Tensor& mask);
void reluBackward(Tensor& grad, const Tensor& mask);

/// MLP: Dense -> ReLU -> ... -> Dense (linear output).
class Mlp {
 public:
  /// `dims` = {input, hidden..., output}; at least {in, out}.
  Mlp(std::vector<std::size_t> dims, Rng& rng, ThreadPool* pool = nullptr);

  std::size_t inputDim() const { return layers_.front().inDim(); }
  std::size_t outputDim() const { return layers_.back().outDim(); }
  const std::vector<std::size_t>& dims() const { return dims_; }
  std::size_t parameterCount() const;

  /// Enable static-prefix folding of the input layer (see DenseLayer).
  /// Once active, forward()/predict() accept inputs of either the full
  /// inputDim() width (the suffix is packed out) or the dynamicInputDim()
  /// width (callers that materialise only the changing reals). Returns
  /// false (and leaves the net unfolded) when the prefix is empty or
  /// covers the whole input.
  bool configureStaticPrefix(std::span<const double> staticPrefix);

  bool foldActive() const { return layers_.front().foldActive(); }
  std::size_t staticPrefixLen() const { return layers_.front().staticLen(); }
  std::size_t dynamicInputDim() const { return layers_.front().dynamicDim(); }
  const DenseLayer& inputLayer() const { return layers_.front(); }

  /// Descriptor of the folded input layer's rank-1 gradient for
  /// Optimizer::step over parameters()/gradients(), carrying this net's
  /// pool so the factored update spreads across it, and the input
  /// layer's row dots, so the step leaves the next forward's refold one
  /// add per row (DenseLayer::factoredGrad). nullopt when the input
  /// layer is not folded. Points into this net: rebuild it after the net
  /// is copied or moved.
  std::optional<FactoredPrefixGrad> factoredGrad() const;

  /// Forward pass; caches activations for a subsequent backward().
  const Tensor& forward(const Tensor& x);

  /// Forward without caching (inference-only; reentrant-safe scratch must
  /// be supplied by the caller). `y` may be `x`.
  void predict(const Tensor& x, Tensor& y) const;

  /// Participants a forward() or predict() of `rows` rows runs on: 1
  /// (the caller alone) without a pool, below two row groups, or when
  /// the call's multiply-adds would give a participant less than the
  /// work floor; otherwise the caller plus pool workers, at most
  /// pool()->threadCount() + 1. They pull groups of 4 rows from one
  /// counter, and each group runs through every layer. Rows never mix,
  /// so every split gives the serial bits.
  std::size_t rowParts(std::size_t rows) const;

  /// Backprop dL/dOutput through the cached activations; accumulates
  /// parameter gradients (call zeroGrad() between optimizer steps).
  void backward(const Tensor& dLossDOut);

  void zeroGrad();

  /// Stable parameter/gradient pointer lists for optimizers
  /// (order: W0, b0, W1, b1, ...).
  std::vector<Tensor*> parameters();
  std::vector<Tensor*> gradients();
  /// Read-only walk in the same order. Unlike parameters(), it leaves
  /// the weight versions and the fold's row dots alone.
  std::vector<const Tensor*> parameters() const;

  /// Copy weights from an identically-shaped network (target-network
  /// sync). Throws on shape mismatch.
  void copyWeightsFrom(const Mlp& other);

  std::vector<DenseLayer>& layers() { return layers_; }
  const std::vector<DenseLayer>& layers() const { return layers_; }

  ThreadPool* pool() const { return pool_; }

 private:
  /// Rows of `x` (dynamic width when folded) through every layer: hidden
  /// layer i writes acts[i] (and masks[i] unless masks is empty), the
  /// last writes y. Sizes them all, brings the fold current, then runs
  /// the rows on rowParts(x.rows()) participants.
  void run(const Tensor& x, std::span<Tensor> acts, std::span<Tensor> masks, Tensor& y) const;

  std::vector<std::size_t> dims_;
  std::vector<DenseLayer> layers_;
  ThreadPool* pool_ = nullptr;

  // Forward caches: inputs_[i] fed layer i (post-ReLU for i > 0);
  // reluMasks_[i] masks the ReLU after layer i. forward() writes hidden
  // activations directly into inputs_[i + 1], so the buffers (and the
  // backward ping-pong pair below) are reused across calls instead of
  // reallocated per minibatch.
  std::vector<Tensor> inputs_;
  std::vector<Tensor> reluMasks_;
  Tensor output_;
  Tensor bwdGrad_, bwdDx_;  // backward() gradient ping-pong scratch
};

}  // namespace dqndock::nn
