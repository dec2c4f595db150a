#pragma once

/// \file optimizer.hpp
/// First-order optimizers. The paper trains with RMSprop (following the
/// original DQN) and names Adam as the alternative; both are provided,
/// plus plain SGD with momentum as a baseline.

#include <cstdint>
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
/// Per-parameter optimizer state is full-shaped (keyed by the param),
/// but RmsProp lets the mean squares of idle rows lag behind by the
/// decays they owe (see RmsProp).
///
/// The update sweeps the rows in groups of at most kDotRows. With a
/// `pool`, the caller and the pool workers pull those groups from a
/// shared counter. Every element's update reads and writes only its own
/// weight and state, so any schedule yields the serial bits.
///
/// Fused dot: when `rowDots` is non-empty (one slot per row), the sweep
/// also sums each row's static dot Σ_j W[r][j]·staticPrefix[j] over the
/// weights it has just written, in the order of accumulateRowDots, so
/// each dot is bitwise the serial one for any schedule. It sets
/// `*rowDotsCurrent` once every row is done. The folded input layer
/// points both into its fold cache (DenseLayer::factoredGrad) and builds
/// its folded bias from the dots without reading W_s again. With an
/// empty `rowDots` the sweep computes no dots and marks nothing.
///
/// A row the step leaves unchanged (RmsProp's idle rows) keeps its dot
/// when `rowDotsMatch` says rowDots already held the dots of the
/// weights as they were when the descriptor was built; otherwise the
/// sweep sums it again from the unchanged row. A weight write after the
/// descriptor is built voids it.
struct FactoredPrefixGrad {
  std::size_t paramIndex = 0;            ///< position of the weight tensor in params/grads
  std::span<const double> staticPrefix;  ///< the S constant input values
  const Tensor* coeff = nullptr;         ///< 1 x out rank-1 coefficient (= bias grad)
  ThreadPool* pool = nullptr;            ///< shares the row groups out when set
  std::span<double> rowDots;             ///< optional out: static dot of each stepped row
  bool* rowDotsCurrent = nullptr;        ///< set once rowDots holds the stepped rows' dots
  bool rowDotsMatch = false;             ///< rowDots matched the weights at build time
};

/// Rows whose static dots accumulate side by side: one accumulator each.
inline constexpr std::size_t kDotRows = 8;

/// dots[k] += Σ_{j<n} w[k·stride + j]·xs[j] for rows k < `rows` (at most
/// kDotRows), in ascending j. Each row keeps its own accumulator, so
/// its sum is bitwise the one-row loop's whatever rows share the pass,
/// and splitting j into consecutive calls continues the same sum. The
/// refold and the fused optimizer sweep both sum through here, starting
/// from 0.0, which makes their dots agree bit for bit.
void accumulateRowDots(const double* w, std::size_t rows, std::size_t stride, const double* xs,
                       std::size_t n, double* dots);

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
///
/// Idle rows. In a factored step, a row whose coeff[r] and packed
/// dynamic gradient are all ±0 has g = ±0 in every column, and its full
/// update is exactly "leave W[r][·] alone and set ms ← ρ·ms":
/// (1−ρ)·g·g is +0, and p − (±0) is p. The sweep skips such a row and
/// counts one pending decay for it. When the row next gets a nonzero
/// gradient, the sweep first applies its pending decays element by
/// element (ms = ρ·ms, k times: the rounded products the skipped steps
/// would have made), then updates as usual. The catch-up stops early
/// once a pass changes no value: from there every pass is the identity,
/// so a row pays at most the passes that take its mean squares through
/// the subnormals to their fixed point (~14 k from ms ≈ 1 at ρ = 0.95),
/// and a row that never revives pays nothing. A dense step over the
/// parameter applies its pending decays first.
///
/// So every weight, and every mean square an update reads, is bitwise
/// the full sweep's, with one exception: a weight stored as −0.0 under a
/// −0 step becomes +0.0 in the full update (−0.0 − (−0.0) = +0.0) but
/// stays −0.0 when its row is skipped. He init (0.0 + σz) and RMSprop
/// (x − x rounds to +0.0) never produce −0.0, so only a loaded
/// checkpoint can hold one, and every dot and forward reads the two
/// zeros alike. The skip runs only where its premise holds: ε > 0,
/// 0 < ρ ≤ 1, and a finite learning rate and static prefix. Sgd and
/// Adam sweep every row: their update on a zero gradient still moves
/// the weights.
class RmsProp final : public Optimizer {
 public:
  explicit RmsProp(double lr = 0.00025, double decay = 0.95, double epsilon = 0.01)
      : Optimizer(lr), decay_(decay), epsilon_(epsilon) {}
  using Optimizer::step;
  void step(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads,
            const FactoredPrefixGrad* factored) override;
  std::string name() const override { return "rmsprop"; }

 private:
  /// Apply every pending decay of parameter owedParam_ and zero the counts.
  void settleOwed();

  double decay_;
  double epsilon_;
  std::vector<Tensor> meanSquare_;
  /// Per row of parameter owedParam_ (the last factored one): the decays
  /// its mean squares still owe. Empty before the first factored step
  /// and after the state is rebuilt.
  std::vector<std::uint64_t> owed_;
  std::size_t owedParam_ = 0;
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
