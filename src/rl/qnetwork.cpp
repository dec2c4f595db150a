#include "src/rl/qnetwork.hpp"

#include <stdexcept>

namespace dqndock::rl {

std::size_t QNetwork::parameterCountTotal() const {
  std::size_t n = 0;
  for (const nn::Tensor* t : parameters()) n += t->size();
  return n;
}

// ---------------------------------------------------------------------------
// MlpQNetwork
// ---------------------------------------------------------------------------

namespace {
std::vector<std::size_t> mlpDims(std::size_t inputDim, const std::vector<std::size_t>& hidden,
                                 int actions) {
  std::vector<std::size_t> dims;
  dims.push_back(inputDim);
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(static_cast<std::size_t>(actions));
  return dims;
}
}  // namespace

MlpQNetwork::MlpQNetwork(std::size_t inputDim, const std::vector<std::size_t>& hidden, int actions,
                         Rng& rng, ThreadPool* pool)
    : net_(mlpDims(inputDim, hidden, actions), rng, pool) {}

MlpQNetwork::MlpQNetwork(nn::Mlp net) : net_(std::move(net)) {}

std::unique_ptr<QNetwork> MlpQNetwork::clone() const {
  auto copy = std::make_unique<MlpQNetwork>(net_);
  return copy;
}

const nn::FactoredPrefixGrad* MlpQNetwork::factoredGrad() const {
  factoredGrad_ = net_.factoredGrad();
  return factoredGrad_ ? &*factoredGrad_ : nullptr;
}

void MlpQNetwork::copyWeightsFrom(const QNetwork& other) {
  const auto* src = dynamic_cast<const MlpQNetwork*>(&other);
  if (!src) throw std::invalid_argument("MlpQNetwork::copyWeightsFrom: type mismatch");
  net_.copyWeightsFrom(src->net_);
}

// ---------------------------------------------------------------------------
// DuelingQNetwork
// ---------------------------------------------------------------------------

namespace {
/// V first: He init fills the merged head row by row, so it draws V's
/// row and then A's rows from the one stream, with the sigma = sqrt(2/h)
/// two separate heads would draw them with.
std::vector<std::size_t> duelingDims(std::size_t inputDim, const std::vector<std::size_t>& hidden,
                                     int actions) {
  if (hidden.empty()) {
    throw std::invalid_argument("DuelingQNetwork: need at least one hidden layer");
  }
  return mlpDims(inputDim, hidden, 1 + actions);
}

/// Q_k = V + A_k - mean_j A_j from the head's [V | A] rows.
void combineHeads(const nn::Tensor& head, nn::Tensor& q) {
  const std::size_t actions = head.cols() - 1;
  q.resizeOverwrite(head.rows(), actions);  // every element assigned below
  for (std::size_t r = 0; r < head.rows(); ++r) {
    const double* row = head.data() + r * head.cols();
    double mean = 0.0;
    for (std::size_t c = 1; c <= actions; ++c) mean += row[c];
    mean /= static_cast<double>(actions);
    for (std::size_t c = 0; c < actions; ++c) q(r, c) = row[0] + row[c + 1] - mean;
  }
}
}  // namespace

DuelingQNetwork::DuelingQNetwork(std::size_t inputDim, const std::vector<std::size_t>& hidden,
                                 int actions, Rng& rng, ThreadPool* pool)
    : net_(duelingDims(inputDim, hidden, actions), rng, pool) {}

const nn::Tensor& DuelingQNetwork::forward(const nn::Tensor& states) {
  combineHeads(net_.forward(states), q_);
  return q_;
}

void DuelingQNetwork::predict(const nn::Tensor& states, nn::Tensor& q) const {
  nn::Tensor head;
  net_.predict(states, head);
  combineHeads(head, q);
}

void DuelingQNetwork::backward(const nn::Tensor& dq) {
  // Q_k = V + A_k - mean_j(A_j):
  //   dV   = sum_k dQ_k
  //   dA_k = dQ_k - mean_j(dQ_j)
  const std::size_t batch = dq.rows();
  const std::size_t actions = dq.cols();
  dOut_.resizeOverwrite(batch, 1 + actions);  // every element assigned below
  for (std::size_t r = 0; r < batch; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < actions; ++c) sum += dq(r, c);
    dOut_(r, 0) = sum;
    const double mean = sum / static_cast<double>(actions);
    for (std::size_t c = 0; c < actions; ++c) dOut_(r, 1 + c) = dq(r, c) - mean;
  }
  net_.backward(dOut_);
}

std::unique_ptr<QNetwork> DuelingQNetwork::clone() const {
  return std::make_unique<DuelingQNetwork>(*this);
}

const nn::FactoredPrefixGrad* DuelingQNetwork::factoredGrad() const {
  factoredGrad_ = net_.factoredGrad();
  return factoredGrad_ ? &*factoredGrad_ : nullptr;
}

void DuelingQNetwork::copyWeightsFrom(const QNetwork& other) {
  const auto* src = dynamic_cast<const DuelingQNetwork*>(&other);
  if (!src) throw std::invalid_argument("DuelingQNetwork::copyWeightsFrom: type mismatch");
  net_.copyWeightsFrom(src->net_);
}

}  // namespace dqndock::rl
