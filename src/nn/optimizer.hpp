#pragma once

/// \file optimizer.hpp
/// First-order optimizers. The paper trains with RMSprop (following the
/// original DQN) and names Adam as the alternative; both are provided,
/// plus plain SGD with momentum as a baseline.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/nn/tensor.hpp"

namespace dqndock::nn {

/// Describes one parameter whose gradient arrives factored: the tensor in
/// `grads` holds only the packed dynamic columns (out x d), and the
/// gradient of the leading `staticPrefix.size()` columns is the rank-1
/// outer product coeff ⊗ staticPrefix (coeff is the 1 x out bias
/// gradient, which the folded input-layer backward computes anyway).
/// Optimizers reconstruct g = coeff[r] * staticPrefix[c] on the fly, so
/// the full (out x in) gradient is never materialised, zeroed, or
/// streamed — the payoff of the static-prefix fold on the learn phase.
/// Per-parameter optimizer state stays full-shaped (keyed by the param).
///
/// With a `pool`, the update of that parameter is split into contiguous
/// row ranges across it. Every element's update reads and writes only
/// its own weight and state, so any partition yields the serial bits.
struct FactoredPrefixGrad {
  std::size_t paramIndex = 0;            ///< position of the weight tensor in params/grads
  std::span<const double> staticPrefix;  ///< the S constant input values
  const Tensor* coeff = nullptr;         ///< 1 x out rank-1 coefficient (= bias grad)
  ThreadPool* pool = nullptr;            ///< splits the factored update by rows when set
};

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Apply one update: params[i] -= f(grads[i]). The two lists must pair
  /// up one-to-one with stable ordering across calls (per-parameter state
  /// is keyed by list position). When `factored` is non-null, the one
  /// parameter it names carries a packed dynamic-column gradient plus the
  /// rank-1 static part (see FactoredPrefixGrad); all other parameters
  /// update exactly as before.
  virtual void step(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads,
                    const FactoredPrefixGrad* factored) = 0;

  /// Dense-gradient convenience overload (the pre-fold call shape).
  void step(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads) {
    step(params, grads, nullptr);
  }

  virtual std::string name() const = 0;

  double learningRate() const { return lr_; }
  void setLearningRate(double lr) { lr_ = lr; }

 protected:
  explicit Optimizer(double lr) : lr_(lr) {}
  double lr_;
};

/// SGD with classical momentum.
class Sgd final : public Optimizer {
 public:
  explicit Sgd(double lr, double momentum = 0.0) : Optimizer(lr), momentum_(momentum) {}
  using Optimizer::step;
  void step(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads,
            const FactoredPrefixGrad* factored) override;
  std::string name() const override { return "sgd"; }

 private:
  double momentum_;
  std::vector<Tensor> velocity_;
};

/// RMSprop as used by DQN (Mnih et al. 2015): squared-gradient moving
/// average with decay 0.95 and epsilon inside the square root.
class RmsProp final : public Optimizer {
 public:
  explicit RmsProp(double lr = 0.00025, double decay = 0.95, double epsilon = 0.01)
      : Optimizer(lr), decay_(decay), epsilon_(epsilon) {}
  using Optimizer::step;
  void step(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads,
            const FactoredPrefixGrad* factored) override;
  std::string name() const override { return "rmsprop"; }

 private:
  double decay_;
  double epsilon_;
  std::vector<Tensor> meanSquare_;
};

/// Adam (Kingma & Ba 2015).
class Adam final : public Optimizer {
 public:
  explicit Adam(double lr = 0.001, double beta1 = 0.9, double beta2 = 0.999,
                double epsilon = 1e-8)
      : Optimizer(lr), beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {}
  using Optimizer::step;
  void step(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads,
            const FactoredPrefixGrad* factored) override;
  std::string name() const override { return "adam"; }

 private:
  double beta1_, beta2_, epsilon_;
  std::vector<Tensor> m_, v_;
  long t_ = 0;
};

/// Factory by name ("sgd" | "rmsprop" | "adam"); throws on unknown names.
std::unique_ptr<Optimizer> makeOptimizer(const std::string& name, double lr);

}  // namespace dqndock::nn
