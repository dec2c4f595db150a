#include "src/serve/inference_batcher.hpp"

#include <algorithm>
#include <stdexcept>

namespace dqndock::serve {

InferenceBatcher::Rollout::Rollout(InferenceBatcher& batcher) : batcher_(batcher) {
  std::lock_guard lock(batcher_.mu_);
  ++batcher_.openRollouts_;
}

InferenceBatcher::Rollout::~Rollout() {
  std::lock_guard lock(batcher_.mu_);
  --batcher_.openRollouts_;
  // One row fewer can arrive, so the rows already queued may be all
  // that will: let the oldest one's caller re-check.
  batcher_.wakeFrontLocked();
}

InferenceBatcher::InferenceBatcher(ForwardFn forward, std::size_t inputDim, int actionCount,
                                   BatcherOptions options)
    : forward_(std::move(forward)),
      inputDim_(inputDim),
      actionCount_(actionCount),
      options_(options) {
  if (!forward_) throw std::invalid_argument("InferenceBatcher: null forward fn");
  if (inputDim_ == 0 || actionCount_ <= 0) {
    throw std::invalid_argument("InferenceBatcher: bad dimensions");
  }
  if (options_.maxBatch == 0) options_.maxBatch = 1;
  batch_.reserve(options_.maxBatch);
}

InferenceBatcher::~InferenceBatcher() { shutdown(); }

std::vector<double> InferenceBatcher::infer(std::span<const double> state) {
  if (state.size() != inputDim_) {
    throw std::invalid_argument("InferenceBatcher::infer: state dim mismatch");
  }
  Request req;
  req.state.assign(state.begin(), state.end());
  {
    std::unique_lock lock(mu_);
    if (stop_) throw std::runtime_error("InferenceBatcher::infer: batcher is shut down");
    req.enqueuedAt = std::chrono::steady_clock::now();
    pending_.push_back(&req);
    // Whoever finds the queue ready while no forward runs runs the batch:
    // the arrival that completes it, or the oldest row's caller once its
    // deadline passes. Every other caller sleeps until its row is served
    // or it becomes the oldest row (the caller that runs a batch, and a
    // rollout that ends, wake the oldest row).
    while (!req.done) {
      if (!running_) {
        const Flush why = readyLocked();
        if (why != Flush::kNotReady) {
          runBatchLocked(lock, why);
          continue;
        }
        if (pending_.front() == &req) {
          req.cv.wait_until(lock, req.enqueuedAt + options_.flushDeadline);
          continue;
        }
      }
      req.cv.wait(lock);
    }
  }
  if (req.error) std::rethrow_exception(req.error);
  return std::move(req.result);
}

void InferenceBatcher::shutdown() {
  std::lock_guard lock(mu_);
  stop_ = true;
  wakeFrontLocked();  // drain: queued rows flush now, not at their deadline
}

BatcherStats InferenceBatcher::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

InferenceBatcher::Flush InferenceBatcher::readyLocked() const {
  if (pending_.empty()) return Flush::kNotReady;
  if (pending_.size() >= options_.maxBatch) return Flush::kFull;
  // Rollouts open and each could have a row queued: nothing more can
  // arrive until this batch returns.
  if (openRollouts_ > 0 && pending_.size() >= openRollouts_) return Flush::kRollouts;
  // The deadline is anchored to the OLDEST row's enqueue time, so rows
  // that queued behind a long forward flush as soon as it ends instead
  // of waiting a second full deadline.
  if (stop_ ||
      std::chrono::steady_clock::now() >= pending_.front()->enqueuedAt + options_.flushDeadline) {
    return Flush::kDeadline;
  }
  return Flush::kNotReady;
}

void InferenceBatcher::runBatchLocked(std::unique_lock<std::mutex>& lock, Flush why) {
  const std::size_t take = std::min(pending_.size(), options_.maxBatch);
  batch_.assign(pending_.begin(), pending_.begin() + take);
  pending_.erase(pending_.begin(), pending_.begin() + take);

  stats_.batches += 1;
  stats_.requests += take;
  stats_.maxBatchRows = std::max(stats_.maxBatchRows, take);
  switch (why) {
    case Flush::kFull: stats_.fullBatches += 1; break;
    case Flush::kRollouts: stats_.rolloutFlushes += 1; break;
    default: stats_.deadlineFlushes += 1; break;
  }

  running_ = true;
  lock.unlock();
  runBatch();
  lock.lock();
  running_ = false;
  for (Request* req : batch_) {
    req->done = true;
    req->cv.notify_one();
  }
  batch_.clear();
  wakeFrontLocked();
}

void InferenceBatcher::runBatch() {
  try {
    nn::Tensor states(batch_.size(), inputDim_);
    for (std::size_t r = 0; r < batch_.size(); ++r) {
      std::copy(batch_[r]->state.begin(), batch_[r]->state.end(), states.row(r).begin());
    }
    nn::Tensor q;
    forward_(states, q);
    if (q.rows() != batch_.size() || q.cols() != static_cast<std::size_t>(actionCount_)) {
      throw std::runtime_error("InferenceBatcher: forward fn returned wrong shape");
    }
    for (std::size_t r = 0; r < batch_.size(); ++r) {
      const auto row = q.row(r);
      batch_[r]->result.assign(row.begin(), row.end());
    }
  } catch (...) {
    const std::exception_ptr err = std::current_exception();
    for (Request* req : batch_) req->error = err;
  }
}

void InferenceBatcher::wakeFrontLocked() {
  if (!running_ && !pending_.empty()) pending_.front()->cv.notify_one();
}

}  // namespace dqndock::serve
