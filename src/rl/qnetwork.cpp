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

DuelingQNetwork::DuelingQNetwork(std::size_t inputDim, const std::vector<std::size_t>& hidden,
                                 int actions, Rng& rng, ThreadPool* pool)
    : pool_(pool) {
  if (hidden.empty()) {
    throw std::invalid_argument("DuelingQNetwork: need at least one hidden layer");
  }
  std::size_t in = inputDim;
  for (std::size_t h : hidden) {
    trunk_.emplace_back(in, h);
    trunk_.back().initHe(rng);
    in = h;
  }
  valueHead_ = std::make_unique<nn::DenseLayer>(in, 1);
  valueHead_->initHe(rng);
  advHead_ = std::make_unique<nn::DenseLayer>(in, static_cast<std::size_t>(actions));
  advHead_->initHe(rng);
}

void DuelingQNetwork::trunkForward(const nn::Tensor& x, nn::Tensor& out,
                                   std::vector<nn::Tensor>* inputs,
                                   std::vector<nn::Tensor>* masks) const {
  // Bias + ReLU + mask capture are fused into each layer's GEMM sweep.
  nn::Tensor buf = x;
  if (inputs) inputs->clear();
  if (masks) masks->resize(trunk_.size());
  std::size_t li = 0;
  for (const auto& layer : trunk_) {
    if (inputs) inputs->push_back(buf);
    nn::Tensor y;
    layer.forward(buf, y, pool_, /*relu=*/true, masks ? &(*masks)[li] : nullptr);
    buf = std::move(y);
    ++li;
  }
  out = std::move(buf);
}

void DuelingQNetwork::combineHeads(const nn::Tensor& v, const nn::Tensor& a, nn::Tensor& q) {
  q.resizeOverwrite(a.rows(), a.cols());  // every element assigned below
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double mean = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) mean += a(r, c);
    mean /= static_cast<double>(a.cols());
    for (std::size_t c = 0; c < a.cols(); ++c) q(r, c) = v(r, 0) + a(r, c) - mean;
  }
}

const nn::Tensor& DuelingQNetwork::forward(const nn::Tensor& states) {
  trunkForward(states, trunkOut_, &trunkInputs_, &trunkMasks_);
  valueHead_->forward(trunkOut_, value_, pool_);
  advHead_->forward(trunkOut_, advantage_, pool_);
  combineHeads(value_, advantage_, q_);
  return q_;
}

void DuelingQNetwork::predict(const nn::Tensor& states, nn::Tensor& q) const {
  nn::Tensor trunkOut, v, a;
  trunkForward(states, trunkOut, nullptr, nullptr);
  valueHead_->forward(trunkOut, v, pool_);
  advHead_->forward(trunkOut, a, pool_);
  combineHeads(v, a, q);
}

void DuelingQNetwork::backward(const nn::Tensor& dq) {
  const std::size_t batch = dq.rows();
  const std::size_t actions = dq.cols();
  // Q_k = V + A_k - mean_j(A_j):
  //   dV   = sum_k dQ_k
  //   dA_k = dQ_k - mean_j(dQ_j)
  nn::Tensor dv(batch, 1);
  nn::Tensor da(batch, actions);
  for (std::size_t r = 0; r < batch; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < actions; ++c) sum += dq(r, c);
    dv(r, 0) = sum;
    const double mean = sum / static_cast<double>(actions);
    for (std::size_t c = 0; c < actions; ++c) da(r, c) = dq(r, c) - mean;
  }

  nn::Tensor dTrunkFromV, dTrunkFromA;
  valueHead_->backward(trunkOut_, dv, &dTrunkFromV, pool_);
  advHead_->backward(trunkOut_, da, &dTrunkFromA, pool_);
  nn::Tensor grad = std::move(dTrunkFromV);
  for (std::size_t i = 0; i < grad.size(); ++i) grad.flat()[i] += dTrunkFromA.flat()[i];

  // Top trunk mask gates the summed head gradients explicitly; every
  // lower mask is fused into the producing layer's dX GEMM.
  nn::reluBackward(grad, trunkMasks_.back());
  for (std::size_t i = trunk_.size(); i-- > 0;) {
    // The bottom trunk layer (i == 0) produces no dX: nothing consumes
    // dL/dState, and at paper dims that GEMM streams the full input
    // weight matrix for nothing.
    nn::Tensor dx;
    trunk_[i].backward(trunkInputs_[i], grad, i > 0 ? &dx : nullptr, pool_,
                       i > 0 ? &trunkMasks_[i - 1] : nullptr);
    grad = std::move(dx);
  }
}

void DuelingQNetwork::zeroGrad() {
  for (auto& layer : trunk_) layer.zeroGrad();
  valueHead_->zeroGrad();
  advHead_->zeroGrad();
}

std::vector<nn::Tensor*> DuelingQNetwork::parameters() {
  std::vector<nn::Tensor*> out;
  for (auto& layer : trunk_) {
    out.push_back(&layer.weights());
    out.push_back(&layer.bias());
  }
  out.push_back(&valueHead_->weights());
  out.push_back(&valueHead_->bias());
  out.push_back(&advHead_->weights());
  out.push_back(&advHead_->bias());
  return out;
}

std::vector<const nn::Tensor*> DuelingQNetwork::parameters() const {
  std::vector<const nn::Tensor*> out;
  for (const auto& layer : trunk_) {
    out.push_back(&layer.weights());
    out.push_back(&layer.bias());
  }
  // Through const references: the heads' unique_ptrs would hand out the
  // mutable accessors, which mark the weights changed.
  for (const nn::DenseLayer* head : {valueHead_.get(), advHead_.get()}) {
    out.push_back(&head->weights());
    out.push_back(&head->bias());
  }
  return out;
}

std::vector<nn::Tensor*> DuelingQNetwork::gradients() {
  std::vector<nn::Tensor*> out;
  for (auto& layer : trunk_) {
    out.push_back(&layer.weightGrad());
    out.push_back(&layer.biasGrad());
  }
  out.push_back(&valueHead_->weightGrad());
  out.push_back(&valueHead_->biasGrad());
  out.push_back(&advHead_->weightGrad());
  out.push_back(&advHead_->biasGrad());
  return out;
}

std::unique_ptr<QNetwork> DuelingQNetwork::clone() const {
  // Rebuild with the same shapes, then overwrite the weights.
  std::vector<std::size_t> hidden;
  for (const auto& layer : trunk_) hidden.push_back(layer.outDim());
  Rng rng(0);
  auto copy = std::make_unique<DuelingQNetwork>(inputDim(), hidden, actionCount(), rng, pool_);
  copy->copyWeightsFrom(*this);
  return copy;
}

void DuelingQNetwork::copyWeightsFrom(const QNetwork& other) {
  const auto* src = dynamic_cast<const DuelingQNetwork*>(&other);
  if (!src) throw std::invalid_argument("DuelingQNetwork::copyWeightsFrom: type mismatch");
  auto dstParams = parameters();
  const auto srcParams = src->parameters();
  if (dstParams.size() != srcParams.size()) {
    throw std::invalid_argument("DuelingQNetwork::copyWeightsFrom: layer mismatch");
  }
  for (std::size_t i = 0; i < dstParams.size(); ++i) {
    if (!dstParams[i]->sameShape(*srcParams[i])) {
      throw std::invalid_argument("DuelingQNetwork::copyWeightsFrom: shape mismatch");
    }
    *dstParams[i] = *srcParams[i];
  }
}

}  // namespace dqndock::rl
