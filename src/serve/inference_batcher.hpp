#pragma once

/// \file inference_batcher.hpp
/// Micro-batching scheduler for Q-network inference — the serving hot
/// path. Concurrent callers each need Q-values for one encoded state;
/// issuing a 1-row GEMM per caller re-reads the full weight matrices per
/// request. The batcher coalesces queued requests into one
/// (batch x dim) forward pass, run on a caller's thread: the caller
/// whose row makes the queue ready runs the batch itself, and a queued
/// caller whose batch's deadline passes runs it too. The queue is ready
/// when `maxBatch` rows are queued, when the oldest row has waited
/// `flushDeadline`, or when every open Rollout has a row queued. Row
/// results are bit-for-bit identical to per-row calls because the GEMM
/// kernels accumulate each output element in a fixed k-order regardless
/// of batch height.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "src/nn/tensor.hpp"

namespace dqndock::serve {

struct BatcherOptions {
  /// Upper bound on rows per forward pass (paper minibatch: 32).
  std::size_t maxBatch = 32;
  /// Upper bound on how long a row waits for its batch to fill, measured
  /// from when the batch's oldest row was ENQUEUED — time a previous
  /// forward pass kept the queue busy counts against it. Batches flush
  /// earlier when every open Rollout has a row queued. 0 runs whatever
  /// is queued immediately.
  std::chrono::microseconds flushDeadline{200};
};

struct BatcherStats {
  std::uint64_t requests = 0;        ///< rows served
  std::uint64_t batches = 0;         ///< forward passes run
  std::uint64_t fullBatches = 0;     ///< run because maxBatch rows were queued
  std::uint64_t rolloutFlushes = 0;  ///< run because every open rollout had a row queued
  std::uint64_t deadlineFlushes = 0; ///< run by deadline or shutdown drain
  std::size_t maxBatchRows = 0;      ///< largest batch observed
  double meanBatchRows() const {
    return batches == 0 ? 0.0 : static_cast<double>(requests) / static_cast<double>(batches);
  }
};

class InferenceBatcher {
 public:
  /// Batched forward: fills `q` (rows x actions) from `states`
  /// (rows x inputDim). Runs on the thread of whichever caller runs the
  /// batch, one call at a time: the batcher never overlaps two forwards.
  using ForwardFn = std::function<void(const nn::Tensor& states, nn::Tensor& q)>;

  /// RAII mark of one rollout in progress: a caller that sends rows one
  /// at a time, each soon after the last returns. While rollouts are
  /// open, a batch flushes once the queued rows number at least the open
  /// rollouts: no further row can arrive before one of them returns.
  /// Ending a rollout (return, timeout, cancel or throw) re-checks the
  /// queue, so its end never leaves another rollout waiting out the
  /// deadline. Must not outlive the batcher.
  class Rollout {
   public:
    explicit Rollout(InferenceBatcher& batcher);
    ~Rollout();
    Rollout(const Rollout&) = delete;
    Rollout& operator=(const Rollout&) = delete;

   private:
    InferenceBatcher& batcher_;
  };

  InferenceBatcher(ForwardFn forward, std::size_t inputDim, int actionCount,
                   BatcherOptions options = {});
  ~InferenceBatcher();

  InferenceBatcher(const InferenceBatcher&) = delete;
  InferenceBatcher& operator=(const InferenceBatcher&) = delete;

  /// Blocking: enqueue one state row, wait for (or run) the batch it
  /// lands in, and return that row's Q-values. Thread-safe. Throws
  /// std::runtime_error after shutdown() and rethrows any exception the
  /// forward fn raised for the batch.
  std::vector<double> infer(std::span<const double> state);

  /// Refuse new rows; rows already queued flush without waiting for
  /// their deadline and complete on their callers' threads. Idempotent;
  /// also run by the dtor, which callers still inside infer() must not
  /// race.
  void shutdown();

  std::size_t inputDim() const { return inputDim_; }
  int actionCount() const { return actionCount_; }
  const BatcherOptions& options() const { return options_; }
  BatcherStats stats() const;

 private:
  struct Request {
    std::vector<double> state;
    std::vector<double> result;
    std::exception_ptr error;
    /// When the row entered pending_ — the flush deadline for a batch is
    /// anchored to its OLDEST row, so time the queue spent blocked
    /// behind a previous forward pass counts against the wait.
    std::chrono::steady_clock::time_point enqueuedAt;
    bool done = false;
    std::condition_variable cv;  ///< wakes this row's caller
  };
  enum class Flush : unsigned char { kNotReady, kFull, kRollouts, kDeadline };

  Flush readyLocked() const;
  void runBatchLocked(std::unique_lock<std::mutex>& lock, Flush why);
  void runBatch();
  void wakeFrontLocked();

  ForwardFn forward_;
  std::size_t inputDim_;
  int actionCount_;
  BatcherOptions options_;

  mutable std::mutex mu_;
  std::vector<Request*> pending_;
  std::size_t openRollouts_ = 0;
  bool running_ = false;  ///< a caller is running batch_
  bool stop_ = false;
  BatcherStats stats_;
  /// Rows of the running batch; only the caller that set running_ reads
  /// or writes it. Reserved to maxBatch up front, so dequeuing a batch
  /// never allocates (a throw there would leave a returning row queued).
  std::vector<Request*> batch_;
};

}  // namespace dqndock::serve
