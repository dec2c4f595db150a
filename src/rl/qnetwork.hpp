#pragma once

/// \file qnetwork.hpp
/// Q-value function approximators. MlpQNetwork is the paper's
/// architecture (plain MLP, linear output per action). DuelingQNetwork
/// is the paper's Section 5 future-work variant: a shared trunk feeding
/// separate state-value and advantage heads recombined as
/// Q = V + A - mean(A) (Wang et al. 2016).

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/rng.hpp"
#include "src/nn/mlp.hpp"
#include "src/nn/optimizer.hpp"

namespace dqndock::rl {

class QNetwork {
 public:
  virtual ~QNetwork() = default;

  virtual std::size_t inputDim() const = 0;
  virtual int actionCount() const = 0;

  /// Training forward: caches activations; the returned reference stays
  /// valid until the next forward call.
  virtual const nn::Tensor& forward(const nn::Tensor& states) = 0;

  /// Inference forward, no caches touched.
  virtual void predict(const nn::Tensor& states, nn::Tensor& q) const = 0;

  /// Backprop dLoss/dQ through the cached forward pass, accumulating
  /// parameter gradients.
  virtual void backward(const nn::Tensor& dq) = 0;

  virtual void zeroGrad() = 0;
  /// Mutable walk (optimizer steps, weight restores): marks the weights
  /// changed, so a folded input layer refolds.
  virtual std::vector<nn::Tensor*> parameters() = 0;
  /// Read-only walk in the same order (polyak source, checkpoint save);
  /// leaves the fold cache current.
  virtual std::vector<const nn::Tensor*> parameters() const = 0;
  virtual std::vector<nn::Tensor*> gradients() = 0;

  /// Deep copy with identical weights (target-network construction).
  virtual std::unique_ptr<QNetwork> clone() const = 0;
  virtual void copyWeightsFrom(const QNetwork& other) = 0;

  // --- Static-prefix folding (nn::Mlp::configureStaticPrefix) ----------
  // Base defaults: no fold support. Architectures that can fold their
  // input layer override; callers must handle a false return (e.g.
  // DuelingQNetwork stays unfolded and the agent keeps full-width states).

  /// Try to fold the given constant input prefix. Returns false when the
  /// architecture doesn't support folding or the prefix is degenerate.
  virtual bool configureStaticPrefix(std::span<const double> /*staticPrefix*/) { return false; }
  virtual bool foldActive() const { return false; }
  /// Width of the inputs forward()/predict() require when folded
  /// (== inputDim() otherwise; folded nets also still accept full width).
  virtual std::size_t dynamicInputDim() const { return inputDim(); }
  /// Rank-1 factored gradient descriptor for Optimizer::step, or nullptr
  /// when not folding. It carries the network's pool, so the optimizer
  /// splits the factored update across it. Valid until the next mutation
  /// of this network.
  virtual const nn::FactoredPrefixGrad* factoredGrad() const { return nullptr; }

  std::size_t parameterCountTotal() const;
};

/// Paper architecture: input -> hidden ReLU layers -> linear Q per action.
class MlpQNetwork final : public QNetwork {
 public:
  MlpQNetwork(std::size_t inputDim, const std::vector<std::size_t>& hidden, int actions, Rng& rng,
              ThreadPool* pool = nullptr);
  explicit MlpQNetwork(nn::Mlp net);

  std::size_t inputDim() const override { return net_.inputDim(); }
  int actionCount() const override { return static_cast<int>(net_.outputDim()); }

  const nn::Tensor& forward(const nn::Tensor& states) override { return net_.forward(states); }
  void predict(const nn::Tensor& states, nn::Tensor& q) const override {
    net_.predict(states, q);
  }
  void backward(const nn::Tensor& dq) override { net_.backward(dq); }
  void zeroGrad() override { net_.zeroGrad(); }
  std::vector<nn::Tensor*> parameters() override { return net_.parameters(); }
  std::vector<const nn::Tensor*> parameters() const override { return net_.parameters(); }
  std::vector<nn::Tensor*> gradients() override { return net_.gradients(); }
  std::unique_ptr<QNetwork> clone() const override;
  void copyWeightsFrom(const QNetwork& other) override;

  bool configureStaticPrefix(std::span<const double> staticPrefix) override {
    return net_.configureStaticPrefix(staticPrefix);
  }
  bool foldActive() const override { return net_.foldActive(); }
  std::size_t dynamicInputDim() const override { return net_.dynamicInputDim(); }
  const nn::FactoredPrefixGrad* factoredGrad() const override;

  nn::Mlp& net() { return net_; }
  const nn::Mlp& net() const { return net_; }

 private:
  nn::Mlp net_;
  // Refreshed by factoredGrad() so the spans/pointers always track the
  // current net_ (clone/copy would otherwise leave them dangling).
  mutable std::optional<nn::FactoredPrefixGrad> factoredGrad_;
};

/// Dueling head: shared ReLU trunk, then V (1 unit) and A (K units)
/// linear heads, Q_k = V + A_k - mean_j A_j.
class DuelingQNetwork final : public QNetwork {
 public:
  DuelingQNetwork(std::size_t inputDim, const std::vector<std::size_t>& hidden, int actions,
                  Rng& rng, ThreadPool* pool = nullptr);

  std::size_t inputDim() const override { return trunk_.front().inDim(); }
  int actionCount() const override { return static_cast<int>(advHead_->outDim()); }

  const nn::Tensor& forward(const nn::Tensor& states) override;
  void predict(const nn::Tensor& states, nn::Tensor& q) const override;
  void backward(const nn::Tensor& dq) override;
  void zeroGrad() override;
  std::vector<nn::Tensor*> parameters() override;
  std::vector<const nn::Tensor*> parameters() const override;
  std::vector<nn::Tensor*> gradients() override;
  std::unique_ptr<QNetwork> clone() const override;
  void copyWeightsFrom(const QNetwork& other) override;

 private:
  void trunkForward(const nn::Tensor& x, nn::Tensor& out, std::vector<nn::Tensor>* inputs,
                    std::vector<nn::Tensor>* masks) const;
  static void combineHeads(const nn::Tensor& v, const nn::Tensor& a, nn::Tensor& q);

  std::vector<nn::DenseLayer> trunk_;  ///< every trunk layer is ReLU-activated
  std::unique_ptr<nn::DenseLayer> valueHead_;
  std::unique_ptr<nn::DenseLayer> advHead_;
  ThreadPool* pool_ = nullptr;

  // Forward caches.
  std::vector<nn::Tensor> trunkInputs_;
  std::vector<nn::Tensor> trunkMasks_;
  nn::Tensor trunkOut_;
  nn::Tensor value_, advantage_, q_;
};

}  // namespace dqndock::rl
